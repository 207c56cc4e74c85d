module agentloc/benchmark

go 1.23

require agentloc v0.0.0

replace agentloc => ../
