// The benchmark is its own module so that the repository's tier-1
// `go build ./... && go test ./...` never compiles or runs it. The module
// path sits under `structream/` so Go's internal-package rule still lets it
// import the engine's internal packages through the replace below.
module structream/benchmark

go 1.22

require structream v0.0.0

replace structream => ../
