# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench perf perf-compare experiments examples fuzz trace-demo clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

## perf runs the benchmark suite (benchmark/README.md), five runs of every
## workload, into OUT; perf-compare checks two such files against the
## bounds in BENCHMARK.json:  make perf OUT=A.json; ...; make perf-compare A=A.json B=B.json
OUT ?= benchmark-result.json
perf:
	bash benchmark/run.sh -runs 5 -out $(OUT)

perf-compare:
	bash benchmark/run.sh compare $(A) $(B)

## experiments regenerates the experiment tables of EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/reprobench

experiments-full:
	$(GO) run ./cmd/reprobench -full -fsync

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fundstransfer
	$(GO) run ./examples/ticketagent
	$(GO) run ./examples/batchbank
	$(GO) run ./examples/failover
	$(GO) run ./examples/tracedemo

## trace-demo drives one traced request end to end and dumps its span tree.
trace-demo:
	$(GO) run ./examples/tracedemo

## fuzz runs each fuzz target briefly.
fuzz:
	$(GO) test ./internal/enc -run xxx -fuzz '^FuzzReaderNeverPanics$$' -fuzztime 20s
	$(GO) test ./internal/enc -run xxx -fuzz '^FuzzRoundTrip$$' -fuzztime 20s
	$(GO) test ./internal/enc -run xxx -fuzz '^FuzzTraceTailRoundTrip$$' -fuzztime 20s
	$(GO) test ./internal/queue -run xxx -fuzz '^FuzzElementDecode$$' -fuzztime 20s
	$(GO) test ./internal/queue -run xxx -fuzz '^FuzzPackedHeaders$$' -fuzztime 20s
	$(GO) test ./internal/queue -run xxx -fuzz '^FuzzRedoNeverPanics$$' -fuzztime 20s
	$(GO) test ./internal/queue -run xxx -fuzz '^FuzzRingOps$$' -fuzztime 20s
	$(GO) test ./internal/wal -run xxx -fuzz '^FuzzScanMatchesReadFrom$$' -fuzztime 20s
	$(GO) test ./internal/rpc -run xxx -fuzz '^FuzzReadFrame$$' -fuzztime 20s
	$(GO) test ./internal/rpc -run xxx -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 20s
	$(GO) test ./internal/rpc -run xxx -fuzz '^FuzzFrameRoundTripDeadline$$' -fuzztime 20s
	$(GO) test ./internal/core -run xxx -fuzz '^FuzzParseRequestReply$$' -fuzztime 20s
	$(GO) test ./internal/core -run xxx -fuzz '^FuzzParseForeignElement$$' -fuzztime 20s
	$(GO) test ./internal/queue/qservice -run xxx -fuzz '^FuzzTransceiveRequest$$' -fuzztime 20s
	$(GO) test ./internal/replica -run xxx -fuzz '^FuzzShipFrameRoundTrip$$' -fuzztime 20s

clean:
	$(GO) clean ./...
