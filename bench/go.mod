module floodguard/bench

go 1.22

require floodguard v0.0.0

replace floodguard => ../
