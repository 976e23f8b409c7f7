module viralcast/bench

go 1.22

require viralcast v0.0.0

replace viralcast => ../
