#!/usr/bin/env bash
# Tier-1 verification for the Revet repo.
#
# Default mode runs the full pipeline from a clean tree:
#   configure (with -Werror, compile_commands.json export, and the
#   bench/ targets enabled so they cannot bit-rot unbuilt),
#   build everything, run every CTest case.
#
#   ./scripts/check.sh [BUILD_DIR]                   # full pipeline (default: build)
#   ./scripts/check.sh --sanitize [BUILD_DIR]        # ASan+UBSan pipeline (default: build-asan)
#   ./scripts/check.sh --tsan [BUILD_DIR]            # TSan pipeline (default: build-tsan)
#   ./scripts/check.sh --tidy [BUILD_DIR]            # clang-tidy over src/ (default: build)
#   ./scripts/check.sh --smoke BUILD_DIR [SUITE...]  # validate an existing build
#
# --sanitize / --tsan run the same configure/build/test pipeline with
# the matching REVET_SANITIZE preset (address,undefined resp. thread,
# no recovery) in a separate build directory, so an instrumented tree
# never mixes objects with the regular one.
#
# --tidy runs clang-tidy (config: .clang-tidy at the repo root,
# warnings-as-errors) over every src/ translation unit recorded in the
# build directory's compile_commands.json, configuring the tree first
# if needed. It fails with a clear message when clang-tidy is not
# installed rather than silently passing.
#
# --smoke is registered with CTest as `tooling.check_smoke`: it asserts
# that the configured tree exported compile_commands.json and produced
# every test-suite binary, without re-entering CMake (which would
# recurse through ctest). The suite names are passed in by
# tests/CMakeLists.txt, the single source of truth; the list below is
# only the fallback for running --smoke by hand.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

SUITES=(absint apps bytecode core dataflow fuzz graph interp lang passes
        serve sim sltf)

smoke() {
    local build_dir="$1"
    shift
    if [[ "$#" -gt 0 ]]; then
        SUITES=("$@")
    fi
    local failed=0

    if [[ ! -f "$build_dir/compile_commands.json" ]]; then
        echo "check.sh: missing $build_dir/compile_commands.json" \
             "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)" >&2
        failed=1
    fi

    for suite in "${SUITES[@]}"; do
        local bin="$build_dir/tests/revet_test_$suite"
        if [[ ! -x "$bin" ]]; then
            echo "check.sh: missing test binary $bin" >&2
            failed=1
        fi
    done

    if [[ "$failed" -ne 0 ]]; then
        exit 1
    fi
    echo "check.sh: smoke OK (compile_commands.json + ${#SUITES[@]} suite binaries)"
}

if [[ "${1:-}" == "--smoke" ]]; then
    if [[ -z "${2:-}" ]]; then
        echo "usage: check.sh --smoke BUILD_DIR [SUITE...]" >&2
        exit 2
    fi
    shift
    smoke "$@"
    exit 0
fi

tidy() {
    local build_dir="$1"
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "check.sh: clang-tidy not found on PATH." >&2
        echo "check.sh: install it (e.g. apt-get install clang-tidy)" \
             "and re-run ./scripts/check.sh --tidy" >&2
        exit 1
    fi
    if [[ ! -f "$build_dir/compile_commands.json" ]]; then
        echo "== configure ($build_dir, for compile_commands.json)"
        cmake -B "$build_dir" -S "$repo_root" \
            -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
            -DREVET_WERROR=ON \
            -DREVET_BUILD_BENCH=ON
    fi
    # Only first-party translation units: the database also records
    # fetched third-party sources (googletest) that our profile must
    # not police.
    local files
    mapfile -t files < <(cd "$repo_root" && find src -name '*.cc' | sort)
    echo "== clang-tidy (${#files[@]} files, warnings-as-errors)"
    (cd "$repo_root" && clang-tidy -p "$build_dir" --quiet "${files[@]}")
    echo "== check.sh: clang-tidy clean"
}

if [[ "${1:-}" == "--tidy" ]]; then
    shift
    build_dir="${1:-$repo_root/build}"
    mkdir -p "$build_dir"
    build_dir="$(cd "$build_dir" && pwd)"
    tidy "$build_dir"
    exit 0
fi

sanitize=OFF
if [[ "${1:-}" == "--sanitize" ]]; then
    sanitize=ON
    shift
    build_dir="${1:-$repo_root/build-asan}"
elif [[ "${1:-}" == "--tsan" ]]; then
    sanitize=thread
    shift
    build_dir="${1:-$repo_root/build-tsan}"
else
    build_dir="${1:-$repo_root/build}"
fi
# Absolute path: cmake would resolve a relative dir against $PWD, but
# the compile_commands.json symlink below resolves against $repo_root.
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"

echo "== configure ($build_dir, sanitize=$sanitize)"
cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DREVET_WERROR=ON \
    -DREVET_BUILD_BENCH=ON \
    -DREVET_SANITIZE="$sanitize"

echo "== build"
cmake --build "$build_dir" -j "$(nproc)"

# TSan slows synchronization and the engine unevenly, so a wall-clock
# gate (label `timing`: bench.serve_throughput's cached vs direct
# serving ratio) measures the instrumentation there, not the code. That
# leg skips only the timing gate; the Release and ASan runs enforce it.
ctest_args=()
if [[ "$sanitize" == thread ]]; then
    ctest_args=(-LE timing)
fi

echo "== test"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
    "${ctest_args[@]}"

if [[ "$sanitize" != OFF ]]; then
    # The DFG optimizer rewrites graphs in place with manual id
    # compaction — exactly the code ASan/UBSan exists for. Re-run the
    # differential matrix (every app and language fixture, unoptimized,
    # under each pass and under the full pipeline, against the AST
    # interpreter on both policies, the parallel leg on 4 workers
    # pinned in the oracle) explicitly so the instrumented build always
    # exercises it even if someone narrows the ctest invocation.
    echo "== optimizer equivalence (sanitized)"
    "$build_dir/tests/revet_test_graph" \
        --gtest_filter='*GraphOptEquiv*:*GraphOptStructure*:*GraphOptPipeline*'
    # The randomized DFG differential suite, pinned to a fixed seed so
    # the instrumented run is reproducible (override via REVET_FUZZ_SEED
    # to replay a CI failure under the sanitizers).
    echo "== optimizer fuzz differential (sanitized, fixed seed)"
    REVET_FUZZ_SEED="${REVET_FUZZ_SEED:-20260730}" \
        "$build_dir/tests/revet_test_fuzz"
    # The executor's lowering programs against the AST interpreter
    # through the same oracle, and the keyed park/restore graphs run
    # directly. (Every app and language fixture under both policies
    # runs in the matrix above.)
    echo "== executor equivalence (sanitized)"
    "$build_dir/tests/revet_test_graph" \
        --gtest_filter='*DataflowExec*'
    # The serving layer recycles execution contexts across requests and
    # shares one immutable artifact between worker threads — lifetime
    # and aliasing bugs there are exactly ASan territory (and the
    # concurrent batteries are TSan territory below).
    echo "== serving layer suite (sanitized)"
    "$build_dir/tests/revet_test_serve"
    if [[ "$sanitize" == thread ]]; then
        # The parallel work-stealing scheduler is the reason the TSan
        # preset exists: re-run the scheduler suite (WorklistScheduler
        # and ParallelScheduler sections) so every Channel push/pop,
        # steal, and quiescence handshake runs instrumented even on
        # single-core hosts. The executor's parallel-policy leg (park
        # reclamation and the primitives under real cross-thread
        # traffic) is the differential matrix above, which pins 4
        # workers in its oracle. The multicast suite runs each
        # group-protocol case (shared ring, per-cursor counts and
        # wakeups, bounded cursors). Both suites pin 4 workers in the
        # tests themselves (one scheduler case uses 8, two use 2);
        # REVET_NUM_THREADS=4 reaches only the cases that leave the
        # count unset. The fuzz differential (above) pins its parallel
        # leg to 2 workers, so the environment does not reach it
        # either.
        echo "== parallel scheduler suite (TSan, 4 workers)"
        REVET_NUM_THREADS=4 "$build_dir/tests/revet_test_dataflow" \
            --gtest_filter='*Scheduler*:*Backpressure*:*Parallel*:*Multicast*'
        # A rewrite that drops memory ordering races only under some
        # interleavings: the strlen-handle stress case runs the default
        # pipeline's graph 30 times on 8 workers (pinned in the test),
        # each run compared with the AST interpreter.
        echo "== strlen-handle parallel stress (TSan, 8 workers)"
        "$build_dir/tests/revet_test_absint" \
            --gtest_filter='Absint.StrlenHandleParallelStress'
        # Serving batteries under TSan: serveBatch's worker threads,
        # each on its own context, and the artifact cache's
        # compile-under-lock dedup, so artifact sharing is
        # exercised with real cross-thread traffic. The parallel-policy
        # battery pins 2 engine workers per request under 4 serving
        # workers; REVET_NUM_THREADS=4 sets the engine count of the
        # cases that leave it unset.
        echo "== serving layer suite (TSan, 4 workers)"
        REVET_NUM_THREADS=4 "$build_dir/tests/revet_test_serve"
        echo "== check.sh: all green (TSan)"
    else
        echo "== check.sh: all green (ASan+UBSan)"
    fi
    exit 0
fi

# Keep a repo-root symlink so clangd/clang-tidy pick the database up.
ln -sf "$build_dir/compile_commands.json" "$repo_root/compile_commands.json" || true

echo "== check.sh: all green"
