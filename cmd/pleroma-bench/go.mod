module pleroma/cmd/pleroma-bench

go 1.22

require pleroma v0.0.0

replace pleroma => ../..
