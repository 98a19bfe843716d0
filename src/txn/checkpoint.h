// Copyright 2026 The ccr Authors.
//
// Fuzzy checkpoints for the segmented journal. A checkpoint lives in the
// persistent object store (store/object_store.h): one key per object
// holding its committed state (through its ADT's state codec) together
// with the LSN of the last commit record sequenced at that object, plus
// one meta key holding the anchor — the journal's high LSN captured
// BEFORE the object walk — and the highest assigned transaction id. A
// manager with no store attached cannot checkpoint; it restarts by
// replaying its whole journal.
//
// The checkpoint is *fuzzy*: objects are snapshotted one at a time with
// transactions still running, so the per-object LSNs generally differ and
// may exceed the anchor. Soundness comes from two facts. First, each
// snapshot pairs state and LSN under the same object mutex that sequences
// commit records, so it reflects exactly the records with lsn <= its LSN.
// Second, the anchor is captured before any snapshot, so every record with
// lsn <= anchor was sequenced — and therefore included — in every object's
// snapshot. Restart replays the tail after the anchor, skipping at each
// object the records at or below that object's checkpoint LSN; segments
// wholly at or below the anchor of a *durable* checkpoint are dead and may
// be truncated (DESIGN.md §4).
//
// The checkpoint is published as one synced store batch. The store's
// frames are checksummed and a torn batch is dropped whole at Open, so a
// crash at any point leaves either the previous meta record or the new
// one — never a meta anchor whose object images are missing.

#ifndef CCR_TXN_CHECKPOINT_H_
#define CCR_TXN_CHECKPOINT_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "store/object_store.h"
#include "txn/journal.h"

namespace ccr {

class TxnManager;

// Decoded contents of one checkpoint image. A default-constructed image
// (anchor 0, no objects) means "no checkpoint: replay everything".
struct CheckpointImage {
  struct ObjectEntry {
    ObjectId id;
    // Registered factory for a dynamically created object (restart
    // re-instantiates it through the manager's factory registry before
    // installing the state); empty for eagerly registered objects.
    std::string factory;
    Lsn lsn = kNoLsn;     // last commit LSN the encoded state reflects
    std::string encoded;  // ADT state-codec bytes (may be empty)
  };

  Lsn anchor = 0;      // journal high LSN at capture; tail replay starts after
  TxnId max_txn = 0;   // highest assigned txn id at capture
  std::vector<ObjectEntry> objects;
};

// --- Store-backed checkpoint codec -----------------------------------------
//
// A checkpoint lives as one store key per object plus one metadata key:
//
//   key "o:<id>"  ->  "img <lsn> <factory-or-'-'> <encoded>"
//   key "m"       ->  "meta <anchor> <max_txn>"
//
// The same keys are written by cold-object eviction (TxnManager::
// EvictObject), which is what makes checkpoints incremental: an evicted
// object's store image is current by construction (snapshotted under the
// object mutex, written and flipped evicted under the manager's store mutex
// after its journal LSN became durable, and frozen while evicted), so a
// checkpoint skips it — both objects seen evicted during the snapshot walk
// and objects evicted between the walk and the store batch — and re-Puts
// only resident objects. The factory
// token is "-" for eagerly registered objects (factory names are validated
// non-empty and whitespace-free, so the sentinel cannot collide).
//
// A checkpoint is durable when the batch carrying the meta key syncs; the
// store's append-order durability property then also covers every earlier
// buffered eviction Put and drop Delete. Journal truncation must only ever
// be keyed to anchors from durable meta records — never to eviction images
// alone.

// "o:<id>" — the store key holding `id`'s newest encoded state.
std::string StoreObjectKey(const ObjectId& id);

// The store key of the checkpoint metadata record.
inline constexpr std::string_view kStoreMetaKey = "m";

// "img <lsn> <factory-or-'-'> <encoded>" and back. `factory` may be empty
// (encoded as "-"); `encoded` is the ADT state codec output (newline-free,
// possibly empty, spaces allowed). DecodeStoreObjectValue leaves
// ObjectEntry::id unset — the id lives in the key.
std::string EncodeStoreObjectValue(Lsn lsn, const std::string& factory,
                                   const std::string& encoded);
StatusOr<CheckpointImage::ObjectEntry> DecodeStoreObjectValue(
    std::string_view value);

// "meta <anchor> <max_txn>" and back (decoded into image.anchor/max_txn).
std::string EncodeStoreMetaValue(Lsn anchor, TxnId max_txn);
Status DecodeStoreMetaValue(std::string_view value, CheckpointImage* image);

// Assembles a CheckpointImage from the store's object and meta keys. A
// store without a meta key yields the empty image (anchor 0, no objects):
// eviction images may precede the first checkpoint, and without a durable
// anchor they are only a cache — the journal remains authoritative, so the
// caller must fall back to full replay.
StatusOr<CheckpointImage> LoadCheckpointFromStore(ObjectStore* store);

struct CheckpointerOptions {
  // The persistent object store the checkpoint is published to. Required.
  // Must be the same store attached to the manager
  // (TxnManager::set_object_store). Not owned.
  ObjectStore* store = nullptr;
  // Test-only: runs after the snapshot walk and before the image is
  // published — the window where commits, evictions, and drops race a
  // fuzzy checkpoint. Production callers leave it unset.
  std::function<void()> after_walk;
};

// Writes checkpoints of a manager into its object store.
class Checkpointer {
 public:
  // `dir` is unused: checkpoints live in options.store. The parameter
  // stays for callers that name the journal directory the store shares.
  // Fatal when options.store is unset.
  Checkpointer(std::string dir, CheckpointerOptions options);

  // Snapshots every object of `manager` and publishes the checkpoint as
  // one synced store batch: Puts of the RESIDENT objects' images (evicted
  // objects' store images are already current) plus the meta key, applied
  // under the manager's store mutex. `anchor` MUST have been read from the
  // journal (its high LSN) before this call — the caller owns that
  // ordering; Write cannot reconstruct it. kNotSupported if any object's
  // ADT lacks a state codec (the system then keeps full-journal replay).
  // On success the checkpoint is durable. Returns the anchor written.
  StatusOr<Lsn> Write(TxnManager* manager, Lsn anchor);

 private:
  const CheckpointerOptions options_;
};

}  // namespace ccr

#endif  // CCR_TXN_CHECKPOINT_H_
