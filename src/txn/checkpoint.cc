// Copyright 2026 The ccr Authors.

#include "txn/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/adt.h"
#include "txn/txn_manager.h"

namespace ccr {

std::string StoreObjectKey(const ObjectId& id) { return "o:" + id; }

std::string EncodeStoreObjectValue(Lsn lsn, const std::string& factory,
                                   const std::string& encoded) {
  // Built with raw appends, never %s/c_str(): the encoded state is opaque
  // codec output, and a c_str()-based format truncates it at the first NUL
  // byte.
  std::string out = "img ";
  out += StrFormat("%llu", static_cast<unsigned long long>(lsn));
  out += ' ';
  if (factory.empty()) {
    out += '-';
  } else {
    out += factory;
  }
  out += ' ';
  out += encoded;
  return out;
}

StatusOr<CheckpointImage::ObjectEntry> DecodeStoreObjectValue(
    std::string_view value) {
  constexpr std::string_view kImgPrefix = "img ";
  if (value.substr(0, kImgPrefix.size()) != kImgPrefix) {
    return Status::Internal("store object value missing 'img' header");
  }
  size_t pos = kImgPrefix.size();
  const size_t lsn_end = value.find(' ', pos);
  if (lsn_end == std::string_view::npos || lsn_end == pos) {
    return Status::Internal("store object value missing LSN");
  }
  const std::string lsn_token(value.substr(pos, lsn_end - pos));
  if (lsn_token.find_first_not_of("0123456789") != std::string::npos) {
    return Status::Internal("store object value has bad LSN: " + lsn_token);
  }
  CheckpointImage::ObjectEntry entry;
  entry.lsn = static_cast<Lsn>(std::strtoull(lsn_token.c_str(), nullptr, 10));
  pos = lsn_end + 1;
  const size_t factory_end = value.find(' ', pos);
  if (factory_end == std::string_view::npos || factory_end == pos) {
    return Status::Internal("store object value missing factory token");
  }
  std::string factory(value.substr(pos, factory_end - pos));
  if (factory != "-") entry.factory = std::move(factory);
  entry.encoded = std::string(value.substr(factory_end + 1));
  return entry;
}

std::string EncodeStoreMetaValue(Lsn anchor, TxnId max_txn) {
  return StrFormat("meta %llu %llu", static_cast<unsigned long long>(anchor),
                   static_cast<unsigned long long>(max_txn));
}

Status DecodeStoreMetaValue(std::string_view value, CheckpointImage* image) {
  unsigned long long anchor = 0, max_txn = 0;
  char trailing = 0;
  if (std::sscanf(std::string(value).c_str(), "meta %llu %llu%c", &anchor,
                  &max_txn, &trailing) != 2) {
    return Status::Internal(
        "store meta value must be 'meta <anchor> <max_txn>'");
  }
  image->anchor = static_cast<Lsn>(anchor);
  image->max_txn = static_cast<TxnId>(max_txn);
  return Status::OK();
}

StatusOr<CheckpointImage> LoadCheckpointFromStore(ObjectStore* store) {
  CCR_CHECK(store != nullptr);
  CheckpointImage image;
  bool have_meta = false;
  CCR_RETURN_IF_ERROR(store->Scan(
      [&](const std::string& key, const std::string& value) -> Status {
        if (key == kStoreMetaKey) {
          CCR_RETURN_IF_ERROR(DecodeStoreMetaValue(value, &image));
          have_meta = true;
          return Status::OK();
        }
        if (key.size() <= 2 || key.rfind("o:", 0) != 0) {
          return Status::Internal(
              StrFormat("unrecognized store key '%s'", key.c_str()));
        }
        StatusOr<CheckpointImage::ObjectEntry> entry =
            DecodeStoreObjectValue(value);
        if (!entry.ok()) return entry.status();
        entry->id = key.substr(2);
        image.objects.push_back(std::move(*entry));
        return Status::OK();
      }));
  // Object images without a durable meta anchor are only a cache (eviction
  // may run before the first checkpoint): the journal stays authoritative,
  // so report "no checkpoint" and let the caller replay in full.
  if (!have_meta) return CheckpointImage{};
  return image;
}

Checkpointer::Checkpointer(std::string /*dir*/, CheckpointerOptions options)
    : options_(std::move(options)) {
  CCR_CHECK_MSG(options_.store != nullptr,
                "checkpoints live in the object store: set "
                "CheckpointerOptions::store");
}

StatusOr<Lsn> Checkpointer::Write(TxnManager* manager, Lsn anchor) {
  CCR_CHECK(manager != nullptr);
  // Snapshot every object. The anchor was captured before this walk, so
  // each snapshot includes every record with lsn <= anchor (plus possibly
  // later ones — that is the fuzziness; the per-object LSN records exactly
  // how much). An evicted object contributes nothing: its store image is
  // current by construction (eviction wrote it under the object mutex after
  // its LSN became durable, and the state is frozen while evicted).
  const TxnId max_txn = manager->max_assigned_txn();
  std::vector<CheckpointImage::ObjectEntry> resident;
  for (AtomicObject* obj : manager->objects()) {
    if (!obj->adt().supports_state_codec()) {
      return Status::NotSupported(StrFormat(
          "object %s's ADT %s has no state codec — cannot checkpoint",
          obj->id().c_str(), obj->adt().name().c_str()));
    }
    if (obj->id().find_first_of(" \n\r\t") != std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "object id '%s' contains whitespace — not checkpointable",
          obj->id().c_str()));
    }
    if (obj->factory_name().find_first_of(" \n\r\t") != std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "factory name '%s' contains whitespace — not checkpointable",
          obj->factory_name().c_str()));
    }
    if (obj->factory_name() == "-") {
      return Status::InvalidArgument(
          "factory name '-' collides with the store codec's empty-factory "
          "sentinel — not checkpointable");
    }
    AtomicObject::CheckpointSnapshot snap = obj->SnapshotForCheckpoint();
    if (snap.state == nullptr) continue;  // evicted
    CheckpointImage::ObjectEntry entry;
    entry.id = obj->id();
    entry.factory = obj->factory_name();
    entry.lsn = snap.lsn;
    entry.encoded = obj->adt().EncodeState(*snap.state);
    if (entry.encoded.find('\n') != std::string::npos) {
      return Status::Internal(StrFormat(
          "ADT %s state codec produced a newline",
          obj->adt().name().c_str()));
    }
    resident.push_back(std::move(entry));
  }
  if (options_.after_walk) options_.after_walk();

  // The manager's store mutex serializes this batch against eviction
  // Put+flips and drop Deletes. The per-Put rechecks close two races with
  // the snapshot walk:
  //  - resurrection: a drop that raced the walk has already retired its
  //    object from the directory, and its key Delete runs under this same
  //    mutex — re-Putting the snapshotted image would recreate the key
  //    after journal truncation discards the drop record;
  //  - staleness: an object committed and evicted since the walk carries a
  //    NEWER store image than the snapshot (eviction writes the image and
  //    flips the evicted bit inside one store-mutex critical section, at
  //    the object's last committed LSN). Overwriting it with the older
  //    snapshot would fail every later fault-in (image LSN != last
  //    committed LSN) until restart, and later checkpoints could never
  //    repair the key because evicted objects' Puts are skipped.
  std::lock_guard<std::mutex> lock(manager->store_mutex());
  StoreWriteBatch batch;
  for (const CheckpointImage::ObjectEntry& entry : resident) {
    AtomicObject* live = manager->object(entry.id);
    if (live == nullptr || live->evicted()) continue;
    batch.Put(StoreObjectKey(entry.id),
              EncodeStoreObjectValue(entry.lsn, entry.factory, entry.encoded));
  }
  batch.Put(std::string(kStoreMetaKey), EncodeStoreMetaValue(anchor, max_txn));
  // The sync that lands the meta key is the durability point; by the
  // store's append-order property it also hardens every earlier buffered
  // eviction Put and drop Delete.
  CCR_RETURN_IF_ERROR(
      options_.store->ApplyBatch(batch, ObjectStore::Durability::kSync));
  return anchor;
}

}  // namespace ccr
