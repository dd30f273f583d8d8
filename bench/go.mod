module vxml/bench

go 1.24

require vxml v0.0.0

replace vxml => ../
