module ges/benchmark

go 1.22

require ges v0.0.0

replace ges => ../
