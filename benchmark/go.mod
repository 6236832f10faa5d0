// The benchmark is a module of its own so that it is built by its own
// command and never by the repository's `go build ./...`; the replace
// directive points at the module it measures, one directory up.
module cpm/benchmark

go 1.24

require cpm v0.0.0

replace cpm => ../
