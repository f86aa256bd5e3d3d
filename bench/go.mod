// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never depends on it. Its path sits
// under deisago/ so that it may import deisago/internal/...
module deisago/bench

go 1.22

require deisago v0.0.0

replace deisago => ../
