module walrus/bench

go 1.22

require walrus v0.0.0

replace walrus => ../
