module ipcp/benchmark

go 1.22

require ipcp v0.0.0

replace ipcp => ../
