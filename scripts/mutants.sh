#!/usr/bin/env bash
# Mutation check of the restart replay rules in TxnManager::ReplayJournal
# and of the eviction store step in TxnManager::EvictObject (both in
# src/txn/txn_manager.cc), and of the crash oracles' strength (an encoder
# in src/txn/journal_format.cc that silently loses an op). Each mutant
# below breaks exactly one rule with one source edit; the named gtest
# filter must then fail. A mutant whose filter still passes has
# "survived": no test pins that rule down.
#
#   scripts/mutants.sh            # or: scripts/check.sh --mutants
#
# The checkout is never edited, its .git directory included: the script
# builds in an exported copy of HEAD (`git archive`) under $TMPDIR
# (uncommitted changes to tracked files and untracked files are carried
# over), applies one mutant at a time there, rebuilds the test binary, and
# runs its filter. Exits non-zero if any mutant survives, or if a mutant's
# edit no longer applies or compiles.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
MANAGER=src/txn/txn_manager.cc
FORMAT=src/txn/journal_format.cc
# The encoder mutant: every multi-op commit record loses its last op on
# the way to disk. The engine's live state keeps it, so only an oracle that
# checks the image against what the run acked can see the loss.
DROP_OP='for (const Operation& op : OpSeq(record.ops.begin(), record.ops.end() - (record.ops.size() > 1 ? 1 : 0))) {'

# One mutant per line: name|source file|test binary|gtest filter|text|
# replacement. `text` must occur exactly once in the source file.
MUTANTS="$(cat <<LIST
create reset|${MANAGER}|directory_test|DynamicRestartTest.RestartFromImageRecreatesDynamicObjects|if (created->existed) {|if (false) {
per-object coverage|${MANAGER}|directory_test|DynamicRestartTest.ImageAndDirRestartsRecoverTheSameWorld|return it != ckpt_lsn.end() && lsn <= it->second;|return it == ckpt_lsn.end() && false;
deferred image install|${MANAGER}|store_test|StoreRestartTest.LazyStoreInstallDefersUntouchedObjects|created->object->InstallCheckpoint(std::move(*state), entry.lsn);|(void)state;
orphan drop|${MANAGER}|directory_test|DynamicRestartTest.ImageAndDirRestartsRecoverTheSameWorld|orphan_ok[lc.object] = true;|(void)orphan_ok;
store re-delete|${MANAGER}|store_test|StoreRestartTest.DeferredDropReDeletesKeyLostBeforeCrash|ctx.NoteStoreDead(lc.object);|(void)lc;
lazy skip|${MANAGER}|store_test|StoreRestartTest.LazySkipLeavesCoveredObjectDeferred|if (lsn <= dit->second->lsn) {|if (false) {
bucket purge on drop|${MANAGER}|store_test|StoreRestartTest.DropPurgesPartialHistoryOfRegisteredObject|buckets[bit->second].second.clear();|(void)bit;
streamed fallback|${MANAGER}|store_test|StoreRestartTest.DropPurgesPartialHistoryOfRegisteredObject|if (ckpt_lsn.count(obj->id()) == 0) streamed = false;|(void)obj;
fallback image check|${MANAGER}|store_test|StoreRestartTest.DropPurgesPartialHistoryOfRegisteredObject|if (streamed && !image.objects.empty()) {|if (streamed && image.objects.empty()) {
stale eviction put|${MANAGER}|store_test|EvictionTest.StaleEvictionDoesNotOverwriteTheWinnersImage|obj->evicted()) return Status::OK();|false) return Status::OK();
encoder drops an op, crash scenario|${FORMAT}|crash_recovery_test|*CrashRecoveryTest.RandomizedCrashRestartProperty/*|for (const Operation& op : record.ops) {|${DROP_OP}
encoder drops an op, serving crash|${FORMAT}|serve_test|ServeCrashTest.NoAckedSubmissionLostAtAnyCut|for (const Operation& op : record.ops) {|${DROP_OP}
LIST
)"

WT="$(mktemp -d "${TMPDIR:-/tmp}/ccr-mutants.XXXXXX")"
trap 'rm -rf "${WT}"' EXIT

echo "==> copy of HEAD at ${WT}"
git archive HEAD | tar -x -C "${WT}"
# Carry the uncommitted state over, so the check covers what is on disk.
if ! git diff --quiet HEAD; then
  git diff --binary HEAD | (cd "${WT}" && git apply --whitespace=nowarn)
fi
git ls-files --others --exclude-standard -z |
  while IFS= read -r -d '' f; do
    mkdir -p "${WT}/$(dirname "$f")"
    cp -p "$f" "${WT}/$f"
  done

BUILD="${WT}/build-mutants"
cmake -S "${WT}" -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
PRISTINE="${BUILD}/pristine"
for f in "${MANAGER}" "${FORMAT}"; do
  mkdir -p "${PRISTINE}/$(dirname "$f")"
  cp "${WT}/$f" "${PRISTINE}/$f"
done

# Puts every mutated source back; a file that already matches is left
# untouched so its objects are not rebuilt.
restore() {
  for f in "${MANAGER}" "${FORMAT}"; do
    cmp -s "${PRISTINE}/$f" "${WT}/$f" || cp "${PRISTINE}/$f" "${WT}/$f"
  done
}

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
while IFS='|' read -r name _ binary filter _ _; do
  if ! build "${binary}" || ! run_filter "${binary}" "${filter}"; then
    cat "${BUILD}/build.log" "${BUILD}/test.log" 2>/dev/null || true
    echo "baseline failure: ${binary} ${filter} (${name})" >&2
    exit 1
  fi
done <<<"${MUTANTS}"

unkilled=0
total=0
while IFS='|' read -r name src binary filter from to; do
  total=$((total + 1))
  restore
  if ! python3 -c '
import sys
path, old, new = sys.argv[1:4]
text = open(path).read()
if text.count(old) != 1:
    sys.exit(1)
open(path, "w").write(text.replace(old, new))
' "${WT}/${src}" "${from}" "${to}"; then
    echo "MISSING  ${name}: the edit no longer applies to ${src}"
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
restore

if [[ "${unkilled}" -ne 0 ]]; then
  echo "==> ${unkilled} of ${total} mutants not killed" >&2
  exit 1
fi
echo "==> all ${total} mutants killed"
