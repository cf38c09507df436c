module uno/bench

go 1.24

require uno v0.0.0

replace uno => ../
