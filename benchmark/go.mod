module mv2j/benchmark

go 1.22

require mv2j v0.0.0

replace mv2j => ../
