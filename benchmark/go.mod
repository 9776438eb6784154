module encag/benchmark

go 1.22

require encag v0.0.0

replace encag => ../
