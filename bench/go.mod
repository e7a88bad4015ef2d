module pbs/bench

go 1.24

require pbs v0.0.0

replace pbs => ../
