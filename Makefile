# Developer entry points. `make check` is what CI runs; `make test` is the
# full (slow) suite including the multi-second campaign tests.

GO ?= go

.PHONY: check lint fmt vet build test race bench loadtest

check:
	./scripts/check.sh

# Static analysis mirroring the CI lint job: gofmt, vet, and — when the
# tools are installed — staticcheck and govulncheck (skipped with a note
# otherwise; CI always installs them).
lint:
	./scripts/lint.sh

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The performance contract: the end-to-end workloads BENCHMARK.json
# declares, run by the harness module in bench/ (one JSON line each).
bench:
	$(GO) run -C bench .

# Sustained prediction-service load: ≥50k requests against a real daemon,
# twice, asserting zero errors and cross-run digest equality.
loadtest:
	$(GO) test -race -run 'TestSustainedLoad50k' -count=1 -v ./internal/predsvc
