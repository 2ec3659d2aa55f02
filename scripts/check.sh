#!/bin/sh
# check.sh — the repository's CI gate, in one command:
#
#   ./scripts/check.sh [stage]
#
# With no argument every stage runs in order; CI splits the work across
# matrix jobs by naming one stage group:
#
#   static     — stages 1-3 (gofmt, vet per build configuration, build)
#   test       — stages 4-5 (full test suite, corpus replay by name)
#   race       — stages 6-8 (race-detector passes, fuzz-seed replays,
#                gccheckmark smoke)
#   serve      — stage 9 (end-to-end daemon gate)
#   gofrontend — stage 10 (Go front end: golden/spec/e2e/differential
#                tests by name, the concurrent loader's lockstep and
#                determinism tests under -race, then antgo self-analysis
#                end-to-end)
#   async      — stage 11 (the parallel engine: named async tests and the
#                parallel fuzz-seed replay under -race, then antsolve
#                -workers 4 end-to-end with its solution diffed against
#                sequential)
#   memo       — stage 12 (operation memoization: the memo/pts unit tests
#                and the memo property/fuzz-seed replays under -race, then
#                antsolve -memo end-to-end — sequential and at 4 workers —
#                with the solutions diffed against plain solving)
#   paper-smoke — stage 13 (the offline passes at paper size against
#                their references; ghostscript at paper size, lcd+hcd
#                solved sequentially, with -workers 2 and behind the
#                HVN → HU → OVS ladder, and ht+hcd and pkh+hcd,
#                solutions compared)
#
# The stages:
#   1. a gofmt gate (fails listing any unformatted file);
#   2. go vet over every package;
#   3. the full build;
#   4. the full test suite;
#   5. an explicit replay of the differential-testing seed corpus
#      (internal/oracle/testdata/corpus/) against the full solver
#      configuration matrix — already part of stage 4, but run by name
#      so a corpus regression is called out unmistakably in CI logs;
#   6. a race-detector pass over the concurrency-bearing packages
#      (internal/par, internal/core, internal/worklist, internal/metrics)
#      in -short mode, so the async engine's owner goroutines, mailboxes,
#      token ring and pause protocol and the metrics registry are
#      exercised under the race detector on every change — plus a -race
#      replay of the committed fuzz seed corpus against the parallel
#      configurations (one to eight owners) and against the offline
#      HVN/HU value-numbering tiers, so every seed that ever broke a
#      solver also pins the reduction passes as solution-preserving;
#   7. a GODEBUG=gccheckmark=1 smoke run of the pool and COW tests:
#      checkmark mode re-marks the heap after every GC cycle and aborts
#      on any object the concurrent mark missed, so a pooled element
#      reachable only through recycled free-list links, or a shared
#      backing freed while a COW handle still references it, fails loudly
#      here instead of corrupting a long solve;
#   8. a -race pass over the Session/Snapshot query-storm and oracle
#      tests in the root package plus the serve handler tests — the
#      lock-free concurrent-reader path of the daemon under the race
#      detector;
#   9. an end-to-end serve stage: build antserve and antload into a
#      temporary directory, boot the daemon on a dynamically chosen
#      port (discovered via -addrfile), storm it with antload for a few
#      seconds with a concurrent update stream, and gate on a positive
#      query rate with zero 5xx responses;
#  10. the Go front-end gate: the golden/spec-coverage suite, the
#      self-analysis e2e test and the gogen differential-oracle cells by
#      name (so a front-end regression is called out unmistakably), the
#      concurrent loader's lockstep tests against the sequential
#      reference loader and its determinism test under the race
#      detector, then
#      antgo built and run on this repository end-to-end, failing unless
#      it produces a non-empty call graph;
#  11. the parallel-engine gate: every TestAsync* and TestParallel* unit
#      test under the race detector (token-ring termination, pause
#      collapses, oracle equivalence), and an end-to-end antsolve run —
#      the same workload solved sequentially and with -workers 4, gating
#      on byte-identical points-to solutions;
#  12. the memoization gate: the internal/memo and pts interning unit
#      tests plus the memo property test and fuzz-seed replay under the
#      race detector (the parallel shard path hashes cross-owner delta
#      payloads concurrently, so a mutating Hash surfaces here), then an
#      end-to-end antsolve run — the same workload solved plain, with
#      -memo, and with -memo -workers 4, gating on byte-identical
#      points-to solutions;
#  13. the paper-size smoke: TestPaperScalePairs and
#      TestPaperScaleOffline by name (on all six profiles at scale 1.0:
#      the HCD offline pass checked pair for pair against the two-walk
#      reference, on the raw program and on the HVN → HU → OVS ladder's
#      output, and each ladder pass checked against its reference), then
#      ghostscript generated at scale 1.0 (67k constraints) and solved
#      with lcd+hcd sequentially, with -workers 2, and sequentially behind
#      -hvn -hu -ovs, and with ht+hcd and pkh+hcd, gating on identical
#      points-to solutions: every explicit solver's step 1 runs the same
#      stamped kernel. Each solve runs under -timeout 60s, which guards
#      against hangs only — the slowest, pkh+hcd, takes a few seconds —
#      and is not a performance gate.
#
# /bin/sh has no pipefail, so every stage below is a plain command (or
# a command substitution) — never a pipeline, except stage 13's, which
# records its solver's exit status itself — and set -e stops the script
# the moment any stage exits non-zero.
set -eu
cd "$(dirname "$0")/.."

stage="${1:-all}"
case "$stage" in
all | static | test | race | serve | gofrontend | async | memo | paper-smoke) ;;
*)
	echo "usage: check.sh [all|static|test|race|serve|gofrontend|async|memo|paper-smoke]" >&2
	exit 2
	;;
esac
want() {
	[ "$stage" = all ] || [ "$stage" = "$1" ]
}

# Read-only checkouts (some CI runners mount the workspace or the
# default cache location read-only) would otherwise fail inside the go
# tool with a confusing error. If the build cache is not writable,
# redirect it to a throwaway directory for the duration of the run.
gocache=$(go env GOCACHE)
if mkdir -p "$gocache" 2>/dev/null && touch "$gocache/.check-write" 2>/dev/null; then
	rm -f "$gocache/.check-write"
else
	tmpcache=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-gocache.XXXXXX")
	trap 'rm -rf "$tmpcache"' EXIT INT TERM
	GOCACHE=$tmpcache
	export GOCACHE
	echo "==> build cache $gocache is read-only; using GOCACHE=$GOCACHE"
fi

if want static; then
	echo "==> gofmt -l ."
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt: the following files need formatting:" >&2
		echo "$unformatted" >&2
		exit 1
	fi

	echo "==> go vet ./..."
	go vet ./...

	echo "==> go build ./..."
	go build ./...
fi

if want test; then
	echo "==> go test ./..."
	go test ./...

	echo "==> go test -run 'TestCorpus|TestHCDRegressionSeed' -count=1 ./internal/oracle ./internal/hcd ./internal/core"
	go test -run 'TestCorpus|TestHCDRegressionSeed' -count=1 ./internal/oracle ./internal/hcd ./internal/core
fi

if want race; then
	echo "==> go test -race -short ./internal/par ./internal/core ./internal/worklist ./internal/metrics"
	go test -race -short ./internal/par ./internal/core ./internal/worklist ./internal/metrics

	echo "==> go test -race -count=1 -run 'TestFuzzSeedsParallel|TestFuzzSeedsAsync|TestFuzzSeedsOffline' ./internal/oracle"
	go test -race -count=1 -run 'TestFuzzSeedsParallel|TestFuzzSeedsAsync|TestFuzzSeedsOffline' ./internal/oracle

	echo "==> GODEBUG=gccheckmark=1 go test -count=1 -run 'TestPool|TestPooled|TestCursor|TestCOW|TestRelease|TestDedup' ./internal/bitmap ./internal/pts"
	GODEBUG=gccheckmark=1 go test -count=1 -run 'TestPool|TestPooled|TestCursor|TestCOW|TestRelease|TestDedup' ./internal/bitmap ./internal/pts

	echo "==> go test -race -short -count=1 -run 'TestSession|TestServe|TestLoad' . ./internal/serve"
	go test -race -short -count=1 -run 'TestSession|TestServe|TestLoad' . ./internal/serve
fi

if want serve; then
	echo "==> serve stage: antserve + antload gate"
	servedir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-serve.XXXXXX")
	servepid=""
	cleanup_serve() {
		if [ -n "$servepid" ]; then
			kill "$servepid" 2>/dev/null || true
			wait "$servepid" 2>/dev/null || true
		fi
		rm -rf "$servedir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_serve EXIT INT TERM
	go build -o "$servedir/antserve" ./cmd/antserve
	go build -o "$servedir/antload" ./cmd/antload
	"$servedir/antserve" -workload emacs -scale 0.05 -hcd \
		-addr 127.0.0.1:0 -addrfile "$servedir/addr" >"$servedir/antserve.log" 2>&1 &
	servepid=$!
	# Wait for the listener (the addrfile appears once bound).
	i=0
	while [ ! -s "$servedir/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "antserve did not come up; log follows:" >&2
			cat "$servedir/antserve.log" >&2
			exit 1
		fi
		sleep 0.1
	done
	"$servedir/antload" -addrfile "$servedir/addr" -duration 3s -readers 64 -updates 250ms -gate
	kill "$servepid" 2>/dev/null || true
	wait "$servepid" 2>/dev/null || true
	servepid=""
fi

if want gofrontend; then
	echo "==> go test -count=1 -run 'TestGolden|TestSpecCoverage|TestSelfAnalysis' ./internal/gogen"
	go test -count=1 -run 'TestGolden|TestSpecCoverage|TestSelfAnalysis' ./internal/gogen

	echo "==> go test -race -count=1 -run 'TestLoadLockstep|TestCompileDeterministic' ./internal/gogen"
	go test -race -count=1 -run 'TestLoadLockstep|TestCompileDeterministic' ./internal/gogen

	echo "==> go test -count=1 -run TestGogenPrograms ./internal/oracle"
	go test -count=1 -run TestGogenPrograms ./internal/oracle

	echo "==> antgo end-to-end self-analysis"
	godir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-gofrontend.XXXXXX")
	go build -o "$godir/antgo" ./cmd/antgo
	out=$("$godir/antgo" .)
	rm -rf "$godir"
	echo "$out"
	case "$out" in
	*"call graph: 0 edges"*)
		echo "gofrontend: self-analysis produced an empty call graph" >&2
		exit 1
		;;
	*"call graph: "*) ;;
	*)
		echo "gofrontend: antgo printed no call-graph summary" >&2
		exit 1
		;;
	esac
fi

if want async; then
	echo "==> go test -race -count=1 -run 'TestAsync|TestParallel|TestWorkersRunOwnerEngine' ./internal/par ./internal/core"
	go test -race -count=1 -run 'TestAsync|TestParallel|TestWorkersRunOwnerEngine' ./internal/par ./internal/core

	echo "==> antsolve -workers 4 end-to-end vs sequential"
	asyncdir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-async.XXXXXX")
	cleanup_async() {
		rm -rf "$asyncdir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_async EXIT INT TERM
	go build -o "$asyncdir/antsynth" ./cmd/antsynth
	go build -o "$asyncdir/antsolve" ./cmd/antsolve
	"$asyncdir/antsynth" -bench emacs -scale 0.1 -o "$asyncdir/prog.constraints"
	"$asyncdir/antsolve" -alg lcd -hcd -print "$asyncdir/prog.constraints" >"$asyncdir/seq.txt"
	"$asyncdir/antsolve" -alg lcd -hcd -workers 4 -print "$asyncdir/prog.constraints" >"$asyncdir/async.txt"
	# Compare only the solution lines ("name -> {...}"); the headers
	# carry wall-clock times that legitimately differ. grep exits 1 on an
	# empty solution, failing the stage under set -e.
	grep ' -> {' "$asyncdir/seq.txt" >"$asyncdir/seq.sol"
	grep ' -> {' "$asyncdir/async.txt" >"$asyncdir/async.sol"
	if ! cmp -s "$asyncdir/seq.sol" "$asyncdir/async.sol"; then
		echo "async: antsolve -workers 4 solution differs from sequential:" >&2
		diff "$asyncdir/seq.sol" "$asyncdir/async.sol" >&2 || true
		exit 1
	fi
	echo "async solution matches sequential ($(wc -l <"$asyncdir/seq.sol") non-empty sets)"
fi

if want memo; then
	echo "==> go test -race -count=1 ./internal/memo"
	go test -race -count=1 ./internal/memo

	echo "==> go test -race -count=1 -run 'TestInternID|TestHashOf|TestAdopt' ./internal/pts"
	go test -race -count=1 -run 'TestInternID|TestHashOf|TestAdopt' ./internal/pts

	echo "==> go test -race -count=1 -run 'TestMemoMatchesPlainOnSynthPrograms|TestFuzzSeedsMemo' ./internal/oracle"
	go test -race -count=1 -run 'TestMemoMatchesPlainOnSynthPrograms|TestFuzzSeedsMemo' ./internal/oracle

	echo "==> antsolve -memo end-to-end vs plain"
	memodir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-memo.XXXXXX")
	cleanup_memo() {
		rm -rf "$memodir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_memo EXIT INT TERM
	go build -o "$memodir/antsynth" ./cmd/antsynth
	go build -o "$memodir/antsolve" ./cmd/antsolve
	"$memodir/antsynth" -bench emacs -scale 0.1 -o "$memodir/prog.constraints"
	"$memodir/antsolve" -alg lcd -hcd -print "$memodir/prog.constraints" >"$memodir/plain.txt"
	"$memodir/antsolve" -alg lcd -hcd -memo -print "$memodir/prog.constraints" >"$memodir/memo.txt"
	"$memodir/antsolve" -alg lcd -hcd -memo -workers 4 -print "$memodir/prog.constraints" >"$memodir/memo-async.txt"
	# Compare only the solution lines ("name -> {...}"); the headers
	# carry wall-clock times that legitimately differ. grep exits 1 on an
	# empty solution, failing the stage under set -e.
	grep ' -> {' "$memodir/plain.txt" >"$memodir/plain.sol"
	grep ' -> {' "$memodir/memo.txt" >"$memodir/memo.sol"
	grep ' -> {' "$memodir/memo-async.txt" >"$memodir/memo-async.sol"
	for sol in memo memo-async; do
		if ! cmp -s "$memodir/plain.sol" "$memodir/$sol.sol"; then
			echo "memo: antsolve $sol solution differs from plain:" >&2
			diff "$memodir/plain.sol" "$memodir/$sol.sol" >&2 || true
			exit 1
		fi
	done
	echo "memo solutions match plain ($(wc -l <"$memodir/plain.sol") non-empty sets)"
fi

if want paper-smoke; then
	echo "==> paper-smoke: offline passes at scale 1.0 vs their references"
	go test -count=1 -run '^(TestPaperScalePairs|TestPaperScaleOffline)$' ./internal/hcd ./internal/hvn
	echo "==> paper-smoke: ghostscript@1.0 lcd+hcd sequential vs -workers 2 vs -hvn -hu -ovs vs ht+hcd vs pkh+hcd"
	paperdir=$(mktemp -d "${TMPDIR:-/tmp}/antgrass-paper.XXXXXX")
	cleanup_paper() {
		rm -rf "$paperdir"
		if [ -n "${tmpcache:-}" ]; then
			rm -rf "$tmpcache"
		fi
	}
	# Replaces the earlier throwaway-GOCACHE trap, so it also removes
	# $tmpcache when that branch was taken.
	trap cleanup_paper EXIT INT TERM
	go build -o "$paperdir/antsynth" ./cmd/antsynth
	go build -o "$paperdir/antsolve" ./cmd/antsolve
	"$paperdir/antsynth" -bench ghostscript -scale 1.0 -o "$paperdir/prog.constraints"
	for run in seq workers2 ladder ht pkh; do
		case $run in
		seq) flags="-alg lcd -workers 1" ;;
		workers2) flags="-alg lcd -workers 2" ;;
		ladder) flags="-alg lcd -workers 1 -hvn -hu -ovs" ;;
		ht) flags="-alg ht" ;;
		pkh) flags="-alg pkh" ;;
		esac
		# The printed solution is ~500 MB, so it is digested as it streams
		# instead of stored. Only the solution lines ("name -> {...}") are
		# compared: the headers carry the solve time and the analytic
		# memory figure, which legitimately differ between engines. A
		# pipeline hides the solver's exit status, so it goes to a file
		# that is checked below. $flags is split into words on purpose.
		{
			status=0
			"$paperdir/antsolve" -hcd $flags -timeout 60s \
				-print "$paperdir/prog.constraints" || status=$?
			echo "$status" >"$paperdir/status.$run"
		} | grep ' -> {' | cksum >"$paperdir/sum.$run"
		if [ "$(cat "$paperdir/status.$run")" != 0 ]; then
			echo "paper-smoke: antsolve $flags failed" >&2
			exit 1
		fi
	done
	read -r crc size <"$paperdir/sum.seq"
	if [ "$size" = 0 ]; then
		echo "paper-smoke: the sequential solve printed no solution" >&2
		exit 1
	fi
	for run in workers2 ladder ht pkh; do
		if [ "$(cat "$paperdir/sum.seq")" != "$(cat "$paperdir/sum.$run")" ]; then
			echo "paper-smoke: $run solution differs from sequential" \
				"(cksum $(cat "$paperdir/sum.$run") vs $(cat "$paperdir/sum.seq"))" >&2
			exit 1
		fi
	done
	echo "paper-smoke: -workers 2, -hvn -hu -ovs, ht+hcd and pkh+hcd solutions match sequential lcd+hcd ($size bytes, cksum $crc)"
fi

echo "OK"
