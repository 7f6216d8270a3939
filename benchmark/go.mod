module privstats/benchmark

go 1.22

require privstats v0.0.0

replace privstats => ../
