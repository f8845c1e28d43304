module psigene/bench

go 1.24

require psigene v0.0.0

replace psigene => ../
