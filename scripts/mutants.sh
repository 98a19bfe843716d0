#!/usr/bin/env bash
# Mutation check of the restart replay rules in TxnManager::ReplayJournal
# (src/txn/txn_manager.cc). Each mutant below breaks exactly one rule with
# one source edit; the named gtest filter must then fail. A mutant whose
# filter still passes has "survived": no test pins that rule down.
#
#   scripts/mutants.sh            # or: scripts/check.sh --mutants
#
# The checkout is never edited. The script builds in a `git worktree` of
# HEAD under $TMPDIR (uncommitted changes to tracked files and untracked
# files are carried over), applies one mutant at a time there, rebuilds the
# test binary, and runs its filter. Exits non-zero if any mutant survives,
# or if a mutant's edit no longer applies or compiles.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
SRC=src/txn/txn_manager.cc

# One mutant per line: name|test binary|gtest filter|text|replacement.
# `text` must occur exactly once in SRC.
MUTANTS="$(cat <<'LIST'
create reset|directory_test|DynamicRestartTest.RestartFromImageRecreatesDynamicObjects|if (created->existed) {|if (false) {
per-object coverage|directory_test|DynamicRestartTest.ImageAndDirRestartsRecoverTheSameWorld|return it != ckpt_lsn.end() && lsn <= it->second;|return it == ckpt_lsn.end() && false;
deferred image install|store_test|StoreRestartTest.LazyStoreInstallDefersUntouchedObjects|created->object->InstallCheckpoint(std::move(*state), entry.lsn);|(void)state;
orphan drop|directory_test|DynamicRestartTest.ImageAndDirRestartsRecoverTheSameWorld|orphan_ok[lc.object] = true;|(void)orphan_ok;
store re-delete|store_test|StoreRestartTest.DeferredDropReDeletesKeyLostBeforeCrash|ctx.NoteStoreDead(lc.object);|(void)lc;
lazy skip|store_test|StoreRestartTest.LazySkipLeavesCoveredObjectDeferred|if (lsn <= dit->second->lsn) {|if (false) {
bucket purge on drop|store_test|StoreRestartTest.DropPurgesPartialHistoryOfRegisteredObject|buckets[bit->second].second.clear();|(void)bit;
LIST
)"

WT="$(mktemp -d "${TMPDIR:-/tmp}/ccr-mutants.XXXXXX")"
cleanup() {
  git worktree remove --force "${WT}" >/dev/null 2>&1 || rm -rf "${WT}"
  git worktree prune >/dev/null 2>&1 || true
}
trap cleanup EXIT

echo "==> worktree of HEAD at ${WT}"
git worktree add --detach --quiet --force "${WT}" HEAD
# Carry the uncommitted state over, so the check covers what is on disk.
if ! git diff --quiet HEAD; then
  git diff --binary HEAD | git -C "${WT}" apply --whitespace=nowarn
fi
git ls-files --others --exclude-standard -z |
  while IFS= read -r -d '' f; do
    mkdir -p "${WT}/$(dirname "$f")"
    cp -p "$f" "${WT}/$f"
  done

BUILD="${WT}/build-mutants"
cmake -S "${WT}" -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cp "${WT}/${SRC}" "${BUILD}/pristine.cc"

# Builds `binary`; 0 on success (the log lands in build.log).
build() {
  cmake --build "${BUILD}" -j "${JOBS}" --target "$1" >"${BUILD}/build.log" 2>&1
}

# Runs `filter` of `binary`; 0 when every selected test passes.
run_filter() {
  "${BUILD}/tests/$1" --gtest_filter="$2" --gtest_brief=1 \
    >"${BUILD}/test.log" 2>&1
}

echo "==> baseline: every filter passes on the unmutated source"
while IFS='|' read -r name binary filter _ _; do
  if ! build "${binary}" || ! run_filter "${binary}" "${filter}"; then
    cat "${BUILD}/build.log" "${BUILD}/test.log" 2>/dev/null || true
    echo "baseline failure: ${binary} ${filter} (${name})" >&2
    exit 1
  fi
done <<<"${MUTANTS}"

unkilled=0
total=0
while IFS='|' read -r name binary filter from to; do
  total=$((total + 1))
  cp "${BUILD}/pristine.cc" "${WT}/${SRC}"
  if ! python3 -c '
import sys
path, old, new = sys.argv[1:4]
text = open(path).read()
if text.count(old) != 1:
    sys.exit(1)
open(path, "w").write(text.replace(old, new))
' "${WT}/${SRC}" "${from}" "${to}"; then
    echo "MISSING  ${name}: the edit no longer applies to ${SRC}"
    unkilled=$((unkilled + 1))
    continue
  fi
  if ! build "${binary}"; then
    cat "${BUILD}/build.log"
    echo "MISSING  ${name}: the mutant does not compile"
    unkilled=$((unkilled + 1))
    continue
  fi
  if run_filter "${binary}" "${filter}"; then
    echo "SURVIVED ${name}: ${binary} --gtest_filter=${filter} still passes"
    unkilled=$((unkilled + 1))
  else
    echo "killed   ${name}: ${binary} --gtest_filter=${filter}"
  fi
done <<<"${MUTANTS}"
cp "${BUILD}/pristine.cc" "${WT}/${SRC}"

if [[ "${unkilled}" -ne 0 ]]; then
  echo "==> ${unkilled} of ${total} mutants not killed" >&2
  exit 1
fi
echo "==> all ${total} mutants killed"
