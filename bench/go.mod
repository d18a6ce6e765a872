module unisched/bench

go 1.22

require unisched v0.0.0

replace unisched => ../
