module vats/benchmark

go 1.22

require vats v0.0.0

replace vats => ../
