// Package catalog interns the symbolic names of a label property graph —
// vertex labels, edge types, and property keys — into small dense integer
// IDs used throughout storage and execution. GES adopts the LPG model (§2.1)
// where vertices and edges carry labels and key-value properties.
package catalog

import (
	"fmt"
	"slices"
	"sync"

	"ges/internal/vector"
)

// LabelID identifies a vertex label.
type LabelID uint16

// EdgeTypeID identifies an edge type (relationship label).
type EdgeTypeID uint16

// PropID identifies a property key within a label's schema.
type PropID uint16

// Direction selects which adjacency of an edge type is traversed.
type Direction uint8

// Adjacency directions. Both is resolved by storage as the union of Out and
// In at expansion time.
const (
	Out Direction = iota
	In
	Both
)

// String returns a short arrow rendering of the direction.
func (d Direction) String() string {
	switch d {
	case Out:
		return "->"
	case In:
		return "<-"
	default:
		return "--"
	}
}

// Reverse returns the opposite direction; Both is its own reverse.
func (d Direction) Reverse() Direction {
	switch d {
	case Out:
		return In
	case In:
		return Out
	default:
		return Both
	}
}

// PropDef describes one property of a label or edge type.
type PropDef struct {
	Name string
	Kind vector.Kind
}

// Catalog is the shared name-interning table of a database instance. It is
// safe for concurrent readers with at most one concurrent writer phase
// (schema definition happens before query execution).
type Catalog struct {
	mu sync.RWMutex

	labels     []string
	labelByStr map[string]LabelID
	labelProps [][]PropDef
	// clusterKey is each label's clustering key: the property the first
	// seal orders the label's rows by, plus one (0: none).
	clusterKey []PropID

	edgeTypes     []string
	edgeTypeByStr map[string]EdgeTypeID
	edgeProps     [][]PropDef

	// propLabels memoizes PropLabels; AddLabel clears it.
	propLabels map[string][]LabelProp

	// version counts schema mutations; plan caches key on it so compiled
	// plans never outlive the schema they were bound against.
	version uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		labelByStr:    make(map[string]LabelID),
		edgeTypeByStr: make(map[string]EdgeTypeID),
	}
}

// Must unwraps an (ID, error) registration result, panicking on error. It
// exists for static schema definitions (test fixtures, the LDBC schema)
// where a registration failure is a programming error, so call sites stay
// declarative without silently discarding errors.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// AddLabel registers a vertex label with its property schema and returns its
// ID. Registering an existing label returns the existing ID and an error if
// the schema differs.
func (c *Catalog) AddLabel(name string, props ...PropDef) (LabelID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.labelByStr[name]; ok {
		return id, fmt.Errorf("catalog: label %q already defined", name)
	}
	id := LabelID(len(c.labels))
	c.labels = append(c.labels, name)
	c.labelProps = append(c.labelProps, append([]PropDef(nil), props...))
	c.clusterKey = append(c.clusterKey, 0)
	c.labelByStr[name] = id
	c.propLabels = nil
	c.version++
	return id, nil
}

// SetClusterKey declares prop, an integer or date property of label, the
// label's clustering key: the graph's first seal lays out the label's rows by
// (key, external id), so the rows before any key value are a prefix of its
// VIDs. It is schema, set before the graph is loaded.
func (c *Catalog) SetClusterKey(label LabelID, prop string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(label) >= len(c.labels) {
		return fmt.Errorf("catalog: unknown label %d", label)
	}
	for i, p := range c.labelProps[label] {
		if p.Name == prop {
			if p.Kind != vector.KindInt64 && p.Kind != vector.KindDate {
				return fmt.Errorf("catalog: clustering key %s.%s is a %s", c.labels[label], prop, p.Kind)
			}
			c.clusterKey[label] = PropID(i) + 1
			c.version++
			return nil
		}
	}
	return fmt.Errorf("catalog: label %s has no property %q", c.labels[label], prop)
}

// ClusterKey returns label's clustering key, if it has one.
func (c *Catalog) ClusterKey(label LabelID) (PropID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(label) >= len(c.clusterKey) || c.clusterKey[label] == 0 {
		return 0, false
	}
	return c.clusterKey[label] - 1, true
}

// AddEdgeType registers an edge type with its (possibly empty) edge-property
// schema and returns its ID.
func (c *Catalog) AddEdgeType(name string, props ...PropDef) (EdgeTypeID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id, ok := c.edgeTypeByStr[name]; ok {
		return id, fmt.Errorf("catalog: edge type %q already defined", name)
	}
	id := EdgeTypeID(len(c.edgeTypes))
	c.edgeTypes = append(c.edgeTypes, name)
	c.edgeProps = append(c.edgeProps, append([]PropDef(nil), props...))
	c.edgeTypeByStr[name] = id
	c.version++
	return id, nil
}

// Version returns the schema version: a counter bumped by every successful
// label or edge-type registration. Cached compiled plans are keyed on it.
func (c *Catalog) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// Label resolves a label name; ok is false when undefined.
func (c *Catalog) Label(name string) (LabelID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.labelByStr[name]
	return id, ok
}

// EdgeType resolves an edge-type name.
func (c *Catalog) EdgeType(name string) (EdgeTypeID, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	id, ok := c.edgeTypeByStr[name]
	return id, ok
}

// LabelName returns the name of a label ID.
func (c *Catalog) LabelName(id LabelID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(id) >= len(c.labels) {
		return fmt.Sprintf("label(%d)", id)
	}
	return c.labels[id]
}

// EdgeTypeName returns the name of an edge-type ID.
func (c *Catalog) EdgeTypeName(id EdgeTypeID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(id) >= len(c.edgeTypes) {
		return fmt.Sprintf("edgetype(%d)", id)
	}
	return c.edgeTypes[id]
}

// NumLabels returns the number of registered labels.
func (c *Catalog) NumLabels() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.labels)
}

// NumEdgeTypes returns the number of registered edge types.
func (c *Catalog) NumEdgeTypes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.edgeTypes)
}

// LabelProps returns the property schema of a label.
func (c *Catalog) LabelProps(id LabelID) []PropDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.labelProps[id]
}

// EdgeTypeProps returns the property schema of an edge type.
func (c *Catalog) EdgeTypeProps(id EdgeTypeID) []PropDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.edgeProps[id]
}

// LabelProp is one label's definition of a property name.
type LabelProp struct {
	Label LabelID
	Prop  PropID
	Kind  vector.Kind
}

// PropLabels resolves a property name across the whole schema in one read:
// every label defining it, in label order (read-only: the catalog keeps it
// until a label is added), and the number of labels.
func (c *Catalog) PropLabels(prop string) ([]LabelProp, int) {
	c.mu.RLock()
	out, ok := c.propLabels[prop]
	n := len(c.labels)
	c.mu.RUnlock()
	if ok {
		return out, n
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for l, props := range c.labelProps {
		for i, p := range props {
			if p.Name == prop {
				out = append(out, LabelProp{Label: LabelID(l), Prop: PropID(i), Kind: p.Kind})
				break
			}
		}
	}
	if c.propLabels == nil {
		c.propLabels = make(map[string][]LabelProp)
	}
	c.propLabels[prop] = slices.Clip(out)
	return out, len(c.labels)
}

// EdgePropIndex resolves a property name within an edge type's schema.
func (c *Catalog) EdgePropIndex(et EdgeTypeID, prop string) (PropID, vector.Kind, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, p := range c.edgeProps[et] {
		if p.Name == prop {
			return PropID(i), p.Kind, true
		}
	}
	return 0, vector.KindInvalid, false
}
