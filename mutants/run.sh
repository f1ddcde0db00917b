#!/usr/bin/env bash
# Mutation check: shows that the tests guarding each invariant can fail.
#
#   mutants/run.sh [mutants/NN-name.patch ...]     (default: every patch)
#
# Each patch breaks one invariant on purpose. Its header, the text
# before the first `diff --git`, carries:
#
#   Mutant:    what the patch breaks, in one sentence
#   Invariant: the short name printed in the table (answers = map, trace,
#              recovery, typed errors, stash bound, decoders, RPC, gates,
#              posmap cost, dispatch)
#   Breaks:    the invariant, spelled out
#   Origin:    the bug, fix or review the mutant re-creates
#   Test:      `cargo test --release` arguments naming one test that must
#              fail under the patch (one line per test, at least one)
#
# The runner checks out HEAD once as a git worktree under target/mutants/
# and, for each patch: `git apply --check`, `git apply`, builds and runs
# every `Test:` line in release (one target dir shared by all patches),
# then `git apply -R`. A mutant is killed when every named test fails;
# a mutant that does not build counts as not killed, so a patch cannot
# pass by breaking the build. The table prints one row per patch, and
# the cargo output of each is kept in target/mutants/logs/. Exit status
# is 1 if any mutant survives, fails to build, or no longer applies.
set -u

repo=$(git rev-parse --show-toplevel) || exit 2
patches=()
if [ $# -eq 0 ]; then
    patches=("$repo"/mutants/*.patch)
else
    for patch in "$@"; do
        case $patch in
            /*) patches+=("$patch") ;;
            *) patches+=("$PWD/$patch") ;;
        esac
    done
fi

tree=$repo/target/mutants/tree
logs=$repo/target/mutants/logs
export CARGO_TARGET_DIR=$repo/target/mutants/target
git -C "$repo" worktree remove --force "$tree" 2>/dev/null
git -C "$repo" worktree prune
git -C "$repo" worktree add --quiet --detach "$tree" HEAD || exit 2
trap 'git -C "$repo" worktree remove --force "$tree"' EXIT
mkdir -p "$logs"

row() { printf '%-42s | %-13s | %-8s | %s\n' "$@"; }
row patch invariant result s
status=0
for patch in "${patches[@]}"; do
    name=${patch##*/}
    log=$logs/${name%.patch}.log
    invariant=?
    tests=()
    while IFS= read -r line; do
        case $line in
            'diff --git'*) break ;;
            'Invariant: '*) invariant=${line#Invariant: } ;;
            'Test: '*) tests+=("${line#Test: }") ;;
        esac
    done <"$patch"
    start=$SECONDS
    if [ ${#tests[@]} -eq 0 ]; then
        echo "no Test: line in the header" >"$log"
        result=NO-TESTS
    elif ! git -C "$tree" apply --check "$patch" >"$log" 2>&1; then
        result=STALE
    else
        git -C "$tree" apply "$patch"
        result=killed
        for test in "${tests[@]}"; do
            read -ra args <<<"$test"
            echo "== cargo test --release ${args[*]}" >>"$log"
            if ! (cd "$tree" && cargo test --release --no-run "${args[@]}") >>"$log" 2>&1; then
                result=BROKEN
                break
            fi
            if (cd "$tree" && cargo test --release "${args[@]}") >>"$log" 2>&1; then
                result=SURVIVED
            fi
        done
        git -C "$tree" apply -R "$patch" || exit 2
    fi
    [ "$result" = killed ] || status=1
    row "$name" "$invariant" "$result" $((SECONDS - start))
done
exit $status
