// Copyright 2026 The ccr Authors.

#include "txn/txn_manager.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "txn/checkpoint.h"
#include "txn/group_commit.h"
#include "txn/journal_format.h"

namespace ccr {

TxnManager::TxnManager(TxnManagerOptions options)
    : options_(options),
      recorder_(RecorderOptions{options.recorder_mode}),
      directory_(options.stripe_count) {}

std::unique_ptr<AtomicObject> TxnManager::BuildObject(ObjectId id,
                                                      ObjectConfig config,
                                                      std::string factory_name) {
  AtomicObjectOptions obj_options;
  obj_options.lock_timeout = options_.lock_timeout;
  obj_options.policy = options_.policy;
  auto object = std::make_unique<AtomicObject>(
      std::move(id), std::move(config.adt), std::move(config.conflict),
      std::move(config.recovery), obj_options);
  if (options_.record_history) object->set_recorder(&recorder_);
  if (options_.policy == DeadlockPolicy::kDetect) {
    object->set_detector(&detector_);
  }
  object->set_kill_fn([this](TxnId victim) { Kill(victim); });
  object->set_factory_name(std::move(factory_name));
  // Store hooks are installed unconditionally: the fault path checks for a
  // store at call time, and it can only be reached on an evicted object —
  // which requires a store to begin with.
  AtomicObject* raw = object.get();
  object->set_store_fault([this, raw] { return ReadStoreImage(raw->id()); });
  object->set_evicted_counter(&evicted_count_);
  return object;
}

StatusOr<std::pair<std::string, Lsn>> TxnManager::ReadStoreImage(
    const ObjectId& id) {
  if (store_ == nullptr) {
    return Status::IllegalState("no object store attached");
  }
  StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
  if (!value.ok()) return value.status();
  StatusOr<CheckpointImage::ObjectEntry> image = DecodeStoreObjectValue(*value);
  if (!image.ok()) return image.status();
  return std::make_pair(std::move(image->encoded), image->lsn);
}

bool TxnManager::Dropping(const ObjectId& id) const {
  std::lock_guard<std::mutex> lock(dropping_mu_);
  return dropping_.count(id) != 0;
}

AtomicObject* TxnManager::AddObject(
    ObjectId id, std::shared_ptr<const Adt> adt,
    std::shared_ptr<const ConflictRelation> conflict,
    std::unique_ptr<RecoveryManager> recovery) {
  ObjectConfig config;
  config.adt = std::move(adt);
  config.conflict = std::move(conflict);
  config.recovery = std::move(recovery);
  std::unique_ptr<AtomicObject> object =
      BuildObject(id, std::move(config), std::string());
  return directory_.Insert(id, std::move(object));
}

void TxnManager::RegisterFactory(const std::string& name,
                                 ObjectFactory factory) {
  CCR_CHECK_MSG(!name.empty() &&
                    name.find_first_of(" \n\r\t") == std::string::npos,
                "factory name '%s' must be non-empty and whitespace-free",
                name.c_str());
  CCR_CHECK(factory != nullptr);
  std::unique_lock<std::shared_mutex> lock(factories_mu_);
  CCR_CHECK_MSG(factories_.emplace(name, std::move(factory)).second,
                "duplicate factory name %s", name.c_str());
}

StatusOr<ObjectFactory> TxnManager::FindFactory(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(factories_mu_);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    return Status::NotFound(StrFormat("no factory named %s", name.c_str()));
  }
  return it->second;
}

StatusOr<AtomicObject*> TxnManager::GetOrCreate(
    const ObjectId& id, const std::string& factory_name) {
  MaybeEvict();
  Lsn create_lsn = kNoLsn;
  bool created = false;
  StatusOr<AtomicObject*> obj = directory_.GetOrCreate(
      id,
      [&]() -> StatusOr<std::unique_ptr<AtomicObject>> {
        // Store fault-in first: a lazily deferred object (lazy restart, or
        // a future eviction design that releases shells) re-enters the
        // directory from its store image, journaling NO create record —
        // its original create is either still in the journal or covered by
        // the image's LSN, so replay stays consistent. Ids mid-DropObject
        // are excluded: their key is doomed, and reading it would
        // resurrect the dropped state into the fresh incarnation.
        if (store_ != nullptr && !Dropping(id)) {
          StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
          if (value.ok()) {
            StatusOr<CheckpointImage::ObjectEntry> img =
                DecodeStoreObjectValue(*value);
            if (!img.ok()) return img.status();
            const std::string& fname =
                img->factory.empty() ? factory_name : img->factory;
            StatusOr<ObjectFactory> factory = FindFactory(fname);
            if (!factory.ok()) return factory.status();
            std::unique_ptr<AtomicObject> built =
                BuildObject(id, (*factory)(id), fname);
            StatusOr<std::unique_ptr<SpecState>> state =
                built->adt().DecodeState(img->encoded);
            if (!state.ok()) return state.status();
            built->InstallCheckpoint(std::move(*state), img->lsn);
            if (lifecycle_journal_ != nullptr) {
              built->recovery().set_journal(lifecycle_journal_);
            }
            return StatusOr<std::unique_ptr<AtomicObject>>(std::move(built));
          }
          if (value.status().code() != StatusCode::kNotFound) {
            return value.status();
          }
        }
        StatusOr<ObjectFactory> factory = FindFactory(factory_name);
        if (!factory.ok()) return factory.status();
        std::unique_ptr<AtomicObject> built =
            BuildObject(id, (*factory)(id), factory_name);
        if (lifecycle_journal_ != nullptr) {
          built->recovery().set_journal(lifecycle_journal_);
          // Journal the create before publication (we still hold the
          // stripe's exclusive lock): the create's LSN precedes every
          // commit record that can name this object, so replay always
          // sees the create first.
          LifecycleRecord record;
          record.kind = LifecycleRecord::Kind::kCreate;
          record.object = id;
          record.factory = factory_name;
          create_lsn = lifecycle_journal_->AppendLifecycle(std::move(record));
        }
        return StatusOr<std::unique_ptr<AtomicObject>>(std::move(built));
      },
      &created);
  if (!obj.ok()) return obj.status();
  // Only the creating caller waits for durability; racers that found the
  // object proceed immediately — any commit they acknowledge waits for a
  // higher LSN, which transitively covers the create.
  if (created && pipeline_ != nullptr && create_lsn != kNoLsn) {
    pipeline_->WaitDurable(create_lsn);
  }
  return *obj;
}

Status TxnManager::DropObject(const ObjectId& id) {
  Lsn drop_lsn = kNoLsn;
  if (store_ != nullptr) {
    // Flag the id before retirement: between directory retirement and the
    // store key Delete below, GetOrCreate's fault-in could otherwise read
    // the doomed key and resurrect the dropped state as a new incarnation.
    std::lock_guard<std::mutex> lock(dropping_mu_);
    dropping_.insert(id);
  }
  const auto unflag = [&] {
    if (store_ != nullptr) {
      std::lock_guard<std::mutex> lock(dropping_mu_);
      dropping_.erase(id);
    }
  };
  const Status status = directory_.Drop(id, [&](AtomicObject* obj) {
    // MarkDropped succeeding means no transaction holds locks or waits at
    // the object, and commits sequence their records inside the same
    // object mutex MarkDropped takes — so every commit record naming this
    // object is already journaled, and the drop record below lands after
    // all of them. New Executes fail with kNotFound from here on.
    CCR_RETURN_IF_ERROR(obj->MarkDropped());
    if (lifecycle_journal_ != nullptr) {
      LifecycleRecord record;
      record.kind = LifecycleRecord::Kind::kDrop;
      record.object = id;
      drop_lsn = lifecycle_journal_->AppendLifecycle(std::move(record));
    }
    return Status::OK();
  });
  if (!status.ok()) {
    unflag();
    return status;
  }
  if (pipeline_ != nullptr && drop_lsn != kNoLsn) {
    pipeline_->WaitDurable(drop_lsn);
  }
  if (store_ != nullptr) {
    // Delete the store key AFTER the directory retirement returned (never
    // under a stripe lock) and after the drop record is durable. Buffered
    // is sound: journal truncation only ever follows a later durable
    // checkpoint, whose sync hardens this Delete first (append-order
    // property); until then the journaled drop record re-kills the key at
    // restart. On failure the drop stands (it is journaled) but the id
    // stays flagged, so fault-in keeps refusing the stale key.
    StoreWriteBatch batch;
    batch.Delete(StoreObjectKey(id));
    Status deleted;
    {
      std::lock_guard<std::mutex> lock(store_mu_);
      deleted = store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered);
    }
    if (!deleted.ok()) return deleted;
  }
  unflag();
  return Status::OK();
}

Status TxnManager::EvictObject(const ObjectId& id) {
  if (store_ == nullptr) {
    return Status::IllegalState("no object store attached — cannot evict");
  }
  AtomicObject* obj = directory_.Find(id);
  if (obj == nullptr) {
    return Status::NotFound(StrFormat("no object named %s", id.c_str()));
  }
  StatusOr<AtomicObject::EvictTicket> ticket = obj->BeginEvict();
  if (!ticket.ok()) return ticket.status();
  // Two-phase gap — no object mutex held across the I/O below. First make
  // the image's LSN durable: an image ahead of the recoverable journal
  // would restart into state the journal cannot justify.
  if (pipeline_ != nullptr && ticket->lsn != kNoLsn) {
    pipeline_->WaitDurable(ticket->lsn);
  }
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    // A drop that raced the ticket has already retired the object and
    // Deletes its key under this same mutex — skip the Put rather than
    // resurrect the key. An eviction that raced it has already written
    // the current image and flipped the object under this mutex; the
    // object stays frozen while evicted, so this ticket's image can only
    // be older, and Putting it would hand the next fault-in a lost update
    // (with a volatile journal its LSN even matches).
    if (directory_.Find(id) == nullptr || obj->evicted()) return Status::OK();
    StoreWriteBatch batch;
    batch.Put(StoreObjectKey(id),
              EncodeStoreObjectValue(ticket->lsn, obj->factory_name(),
                                     ticket->encoded));
    // Buffered: the next checkpoint sync hardens it. Until then the
    // journal alone reconstructs the state — WaitDurable above guarantees
    // the journal reaches at least the image's LSN.
    CCR_RETURN_IF_ERROR(
        store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered));
    // Flip under the same store-mutex hold that wrote the image: anyone
    // observing evicted() under the store mutex (the checkpoint batch's
    // staleness recheck) can then rely on the key holding an image at
    // exactly the object's last committed LSN — the invariant fault-in's
    // LSN-equality check enforces. Flipping outside the mutex would let a
    // checkpoint overwrite the fresh image with its older walk snapshot
    // in the write-to-flip window.
    //
    // false: a commit or drop raced the gap and the eviction is
    // abandoned. The Put stays behind as a stale-but-sound image — its
    // LSN covers everything any durable anchor requires, and the next
    // checkpoint or eviction refreshes it.
    obj->FinishEvict(*ticket);
  }
  return Status::OK();
}

size_t TxnManager::MaybeEvict() {
  if (store_ == nullptr || options_.evict_high_watermark == 0) return 0;
  // Sampled: the resident estimate is two relaxed loads, but there is no
  // need to consider sweeping on every Execute.
  if ((evict_tick_.fetch_add(1, std::memory_order_relaxed) & 0xf) != 0) {
    return 0;
  }
  if (resident_objects() <= options_.evict_high_watermark) return 0;
  if (evict_sweep_.test_and_set(std::memory_order_acquire)) return 0;
  const size_t low = options_.evict_low_watermark == 0
                         ? options_.evict_high_watermark
                         : options_.evict_low_watermark;
  size_t evicted = 0;
  const std::vector<AtomicObject*> objs = directory_.Snapshot();
  // CLOCK second chance: the first pass spares (and clears) each object's
  // recently-referenced bit, the second takes whatever is quiescent.
  // Busy objects (locks held, waiters, raced commits) just fail their
  // BeginEvict and are skipped.
  for (int pass = 0; pass < 2 && resident_objects() > low; ++pass) {
    for (AtomicObject* obj : objs) {
      if (resident_objects() <= low) break;
      if (obj->evicted()) continue;
      if (pass == 0 && obj->TestAndClearReferenced()) continue;
      const size_t before = evicted_objects();
      if (EvictObject(obj->id()).ok() && evicted_objects() > before) {
        ++evicted;
      }
    }
  }
  evict_sweep_.clear(std::memory_order_release);
  return evicted;
}

AtomicObject* TxnManager::object(const ObjectId& id) const {
  return directory_.Find(id);
}

std::vector<AtomicObject*> TxnManager::objects() const {
  return directory_.Snapshot();
}

TxnManager::ReplayContext::ReplayContext(
    TxnManager* manager, const std::map<ObjectId, AtomicObject*>& registered)
    : manager_(manager), by_id_(registered) {}

AtomicObject* TxnManager::ReplayContext::Find(const ObjectId& id) const {
  if (dropped_.count(id) != 0) return nullptr;
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

StatusOr<TxnManager::ReplayContext::CreateResult>
TxnManager::ReplayContext::ApplyCreate(const ObjectId& id,
                                       const std::string& factory) {
  CreateResult result;
  const auto dropped_it = dropped_.find(id);
  if (dropped_it != dropped_.end()) {
    // Re-create of a previously dropped id: the same object slot starts a
    // fresh incarnation.
    dropped_.erase(dropped_it);
    result.object = by_id_.at(id);
    result.existed = true;
    return result;
  }
  const auto it = by_id_.find(id);
  if (it != by_id_.end()) {
    result.object = it->second;
    result.existed = true;
    return result;
  }
  StatusOr<ObjectFactory> found = manager_->FindFactory(factory);
  if (!found.ok()) {
    return Status::Internal(StrFormat(
        "restart re-creates object %s through unregistered factory %s — "
        "restart system does not match the journaled one", id.c_str(),
        factory.c_str()));
  }
  std::unique_ptr<AtomicObject> built =
      manager_->BuildObject(id, (*found)(id), factory);
  result.object = built.get();
  by_id_.emplace(id, built.get());
  created_.emplace(id, std::move(built));
  return result;
}

Status TxnManager::ReplayContext::ApplyDrop(const ObjectId& id) {
  if (by_id_.find(id) == by_id_.end() || dropped_.count(id) != 0) {
    return Status::Internal(StrFormat(
        "journal drops %s object %s — journal and replay state disagree",
        dropped_.count(id) != 0 ? "already-dropped" : "unknown", id.c_str()));
  }
  dropped_.insert(id);
  return Status::OK();
}

void TxnManager::ReplayContext::Finalize(size_t* objects_created,
                                         size_t* objects_dropped) {
  size_t created_count = 0;
  for (auto& [id, obj] : created_) {
    if (dropped_.count(id) != 0) continue;  // created then dropped: gone
    // Publication: attach the manager's lifecycle journal so post-restart
    // commits of this object journal like any other object's, then insert.
    if (manager_->lifecycle_journal_ != nullptr) {
      obj->recovery().set_journal(manager_->lifecycle_journal_);
    }
    manager_->directory_.Insert(id, std::move(obj));
    ++created_count;
  }
  for (const ObjectId& id : dropped_) {
    // A replay-created object whose final state is dropped was never
    // published; it dies with `created_`. A pre-registered one is retired
    // for real — no journaling, its drop record is already durable.
    if (created_.count(id) != 0) continue;
    const Status s = manager_->directory_.Drop(
        id, [](AtomicObject* obj) { return obj->MarkDropped(); });
    CCR_CHECK_MSG(s.ok(), "cannot retire %s after replay: %s", id.c_str(),
                  s.ToString().c_str());
  }
  *objects_created = created_count;
  *objects_dropped = dropped_.size();
}

Status TxnManager::RestartGuarded(
    const std::function<Status(ReplayContext&)>& replay,
    size_t* objects_created, size_t* objects_dropped) {
  for (size_t i = 0; i < kLiveStripes; ++i) {
    std::lock_guard<std::mutex> lock(live_[i].mu);
    if (!live_[i].txns.empty()) {
      return Status::IllegalState(
          "Restart with live transactions — recovery runs on a fresh "
          "manager before any transaction begins");
    }
  }
  // Detach journals during replay: the records being replayed are already
  // durable, and re-appending them would double the journal.
  const std::vector<AtomicObject*> objs = objects();
  std::map<AtomicObject*, Journal*> detached;
  for (AtomicObject* obj : objs) {
    detached[obj] = obj->recovery().journal();
    obj->recovery().set_journal(nullptr);
  }
  // One id->object map for the whole replay: the per-op object(...) lookup
  // cost a directory probe per journaled operation, which dominated restart
  // on long journals. The context layers lifecycle effects (creates, drops)
  // on top without touching the directory until Finalize.
  std::map<ObjectId, AtomicObject*> by_id;
  for (AtomicObject* obj : objs) by_id.emplace(obj->id(), obj);

  ReplayContext ctx(this, by_id);
  Status status = replay(ctx);

  if (status.ok() && store_ != nullptr) {
    // Store reconcile: re-delete the keys of every object this replay saw
    // dropped. A pre-crash buffered Delete may have been lost; once the
    // journal's drop record is truncated, a surviving key would resurrect
    // the object at the next restart. Buffered is sound here too —
    // truncation only follows a later durable checkpoint whose sync
    // hardens this batch, and until then the journal still carries the
    // drop record, so the next restart re-issues the Delete.
    StoreWriteBatch batch;
    for (const ObjectId& id : ctx.dropped()) {
      batch.Delete(StoreObjectKey(id));
    }
    for (const ObjectId& id : ctx.store_dead()) {
      if (ctx.dropped().count(id) == 0) batch.Delete(StoreObjectKey(id));
    }
    if (!batch.empty()) {
      std::lock_guard<std::mutex> lock(store_mu_);
      status = store_->ApplyBatch(batch, ObjectStore::Durability::kBuffered);
    }
  }

  if (!status.ok()) {
    // Fail-atomicity: a half-replayed manager must not pass for a
    // recovered one. Reset every object to its initial state while the
    // journals are still detached, so the error path leaves exactly the
    // "empty system" a caller can reason about (retry, or discard).
    // Replay-created objects were never published — they die with the
    // context.
    for (AtomicObject* obj : objs) obj->ResetForRecovery();
  }
  for (auto& [obj, jnl] : detached) obj->recovery().set_journal(jnl);
  if (status.ok()) ctx.Finalize(objects_created, objects_dropped);
  return status;
}

Status TxnManager::InstallImageObjects(
    ReplayContext& ctx, const CheckpointImage& image,
    std::map<ObjectId, Lsn>* ckpt_lsn,
    std::map<ObjectId, const CheckpointImage::ObjectEntry*>* deferred,
    size_t* installed) {
  for (const CheckpointImage::ObjectEntry& entry : image.objects) {
    AtomicObject* obj = ctx.Find(entry.id);
    if (obj == nullptr) {
      if (entry.factory.empty()) {
        return Status::Internal(StrFormat(
            "checkpoint names unknown object %s — restart system does "
            "not match the checkpointed one", entry.id.c_str()));
      }
      (*ckpt_lsn)[entry.id] = entry.lsn;
      if (deferred != nullptr) {
        // Lazy store restart: park the entry — it materializes only if
        // the tail names it, otherwise its store image stays the state of
        // record and first touch faults it in.
        deferred->emplace(entry.id, &entry);
        continue;
      }
      StatusOr<ReplayContext::CreateResult> created =
          ctx.ApplyCreate(entry.id, entry.factory);
      if (!created.ok()) return created.status();
      obj = created->object;
    } else {
      (*ckpt_lsn)[entry.id] = entry.lsn;
    }
    StatusOr<std::unique_ptr<SpecState>> state =
        obj->adt().DecodeState(entry.encoded);
    if (!state.ok()) return state.status();
    obj->InstallCheckpoint(std::move(*state), entry.lsn);
    ++*installed;
  }
  return Status::OK();
}

Status TxnManager::RestartFromImage(std::string_view image,
                                    RecoveryReport* report) {
  RestartSummary summary;
  return ReplayJournal(
      [&](Lsn after, const EntryFn& fn) {
        Lsn lsn = 0;
        return ForEachJournalEntry(
            image,
            [&](Journal::Entry&& entry) {
              return ++lsn <= after ? Status::OK() : fn(lsn, std::move(entry));
            },
            report);
      },
      RestartOptions{}, &summary);
}

StatusOr<RestartSummary> TxnManager::RestartFromDir(const std::string& dir,
                                                    RestartOptions options) {
  RestartSummary summary;
  CCR_RETURN_IF_ERROR(ReplayJournal(
      [&](Lsn after, const EntryFn& fn) {
        return ForEachSegmentedEntry(dir, after, fn, &summary.scan);
      },
      options, &summary));
  return summary;
}

Status TxnManager::ReplayJournal(const EntryScan& scan,
                                 RestartOptions options,
                                 RestartSummary* summary) {
  return RestartGuarded(
      [&](ReplayContext& ctx) {
        // The checkpoint is the attached store's meta record; without a
        // store, or before the first checkpoint, the image is empty and
        // the journal replays in full.
        CheckpointImage image;
        if (store_ != nullptr) {
          StatusOr<CheckpointImage> loaded = LoadCheckpointFromStore(store_);
          if (!loaded.ok()) return loaded.status();
          image = std::move(*loaded);
        }
        summary->checkpoint_anchor = image.anchor;

        // Install the checkpointed states. Entries carrying a factory name
        // objects this manager never registered — re-instantiate them
        // through the factory registry first (or, under
        // lazy_store_install, defer them until the tail names them). An
        // entry without a factory naming an unknown object is a
        // configuration mismatch (its truncated records are
        // unrecoverable elsewhere); a manager object missing from the
        // image simply replays its whole (surviving) history from the
        // initial state.
        std::map<ObjectId, Lsn> ckpt_lsn;
        std::map<ObjectId, const CheckpointImage::ObjectEntry*> deferred;
        const bool lazy = options.lazy_store_install && store_ != nullptr;
        CCR_RETURN_IF_ERROR(InstallImageObjects(
            ctx, image, &ckpt_lsn, lazy ? &deferred : nullptr,
            &summary->checkpoint_objects));

        // Materializes a deferred image entry once the tail names its
        // object. Runs during the serial scan only.
        const auto materialize =
            [&](const std::map<ObjectId,
                               const CheckpointImage::ObjectEntry*>::iterator
                    dit) -> StatusOr<AtomicObject*> {
          const CheckpointImage::ObjectEntry& entry = *dit->second;
          StatusOr<ReplayContext::CreateResult> created =
              ctx.ApplyCreate(entry.id, entry.factory);
          if (!created.ok()) return created.status();
          StatusOr<std::unique_ptr<SpecState>> state =
              created->object->adt().DecodeState(entry.encoded);
          if (!state.ok()) return state.status();
          created->object->InstallCheckpoint(std::move(*state), entry.lsn);
          ++summary->checkpoint_objects;
          deferred.erase(dit);
          return created->object;
        };

        // Per-object replay buckets. Within a bucket, entries keep LSN
        // order — including `create_reset` markers, which place an
        // incarnation boundary between an older incarnation's (purged)
        // records and the new incarnation's ops. Across buckets there is
        // no ordering requirement (object states are independent), which
        // is exactly what lets the replay fan out. On one thread the
        // buckets are drained after every entry, so memory stays bounded
        // by one record; with more, they fill over the whole tail first.
        struct TailEntry {
          bool create_reset;  // reset-to-initial marker, no ops
          TxnId txn;
          Lsn lsn;
          OpSeq ops;
        };
        std::vector<std::pair<AtomicObject*, std::vector<TailEntry>>> buckets;
        std::map<AtomicObject*, size_t> bucket_index;
        const auto bucket_for =
            [&](AtomicObject* obj) -> std::vector<TailEntry>& {
          const auto [bit, fresh] = bucket_index.emplace(obj, buckets.size());
          if (fresh) buckets.emplace_back(obj, std::vector<TailEntry>{});
          return buckets[bit->second].second;
        };
        const auto replay_bucket = [](AtomicObject* obj,
                                      std::vector<TailEntry>& bucket) {
          for (TailEntry& entry : bucket) {
            if (entry.create_reset) {
              obj->ResetForRecovery();
              continue;
            }
            CCR_RETURN_IF_ERROR(
                obj->ReplayCommitted(entry.txn, entry.ops, entry.lsn));
          }
          return Status::OK();
        };
        // One thread streams: the buckets drain after every entry. A
        // registered object absent from a non-empty image may have been
        // dropped before the checkpoint walk; then its tail records up to
        // the drop are a partial history that only the drop's purge keeps
        // from replaying, and streaming would apply them before the drop
        // is seen. Such a restart holds every bucket to the end of the
        // scan, as the fanned-out replay does.
        bool streamed = options.replay_threads <= 1;
        if (streamed && !image.objects.empty()) {
          for (AtomicObject* obj : objects()) {
            if (ckpt_lsn.count(obj->id()) == 0) streamed = false;
          }
        }
        const auto drain = [&]() -> Status {
          for (auto& [obj, bucket] : buckets) {
            CCR_RETURN_IF_ERROR(replay_bucket(obj, bucket));
          }
          buckets.clear();
          bucket_index.clear();
          return Status::OK();
        };

        // Ops naming an id that is neither registered, image-installed,
        // nor tail-created: legal only when a later `drop` record shows
        // the whole incarnation was superseded by the checkpoint (the
        // object was dropped before the image walk, so the image has no
        // entry, but its pre-drop tail records survive). Tracked here and
        // judged once the scan completes.
        std::map<ObjectId, bool> orphan_ok;

        // Routes one entry: lifecycle effects apply now (the scan is
        // serial); commit ops land in their objects' buckets.
        const auto route = [&](Lsn lsn, Journal::Entry& entry) -> Status {
          const auto covered = [&](const ObjectId& id) {
            const auto it = ckpt_lsn.find(id);
            return it != ckpt_lsn.end() && lsn <= it->second;
          };
          if (entry.is_lifecycle) {
            const LifecycleRecord& lc = entry.lifecycle;
            if (covered(lc.object)) {
              // Fuzzy overshoot: the object's snapshot was taken after
              // this lifecycle event, so the image already reflects it
              // (an incarnation's checkpoint LSN is 0 or exceeds its
              // create LSN — a covered create's incarnation is the
              // image's own).
              ++summary->tail_skipped;
              return Status::OK();
            }
            ++summary->tail_records;
            if (lc.kind == LifecycleRecord::Kind::kDrop) {
              AtomicObject* obj = ctx.Find(lc.object);
              if (obj == nullptr && !ctx.Dropped(lc.object)) {
                // Drop of an id this restart never saw: resolves the
                // orphaned ops of a checkpoint-superseded incarnation. Or
                // drop of a lazily deferred object: it never materializes.
                // Either way its store key must die again — the pre-crash
                // buffered Delete may have been lost.
                if (deferred.erase(lc.object) != 0) ckpt_lsn.erase(lc.object);
                orphan_ok[lc.object] = true;
                ctx.NoteStoreDead(lc.object);
                return Status::OK();
              }
              CCR_RETURN_IF_ERROR(ctx.ApplyDrop(lc.object));
              // The dropped incarnation's buffered tail is dead state:
              // purge it instead of replaying a partial history whose
              // effect the drop (or a following create's reset) discards
              // anyway.
              const auto bit = bucket_index.find(obj);
              if (bit != bucket_index.end()) {
                buckets[bit->second].second.clear();
              }
              return Status::OK();
            }
            // An uncovered create supersedes any parked image: the new
            // incarnation starts fresh (its ops all carry LSNs above the
            // stale image's, so the ckpt_lsn entry can never cover them).
            deferred.erase(lc.object);
            StatusOr<ReplayContext::CreateResult> created =
                ctx.ApplyCreate(lc.object, lc.factory);
            if (!created.ok()) return created.status();
            if (created->existed) {
              // The object already holds state (image install, or the
              // registered initial state): order the incarnation reset
              // into its bucket so it lands between the old incarnation's
              // records and the new one's ops.
              bucket_for(created->object)
                  .push_back(TailEntry{true, 0, lsn, OpSeq{}});
            }
            return Status::OK();
          }
          const TxnId txn = entry.commit.txn;
          summary->max_txn = std::max(summary->max_txn, txn);
          ++summary->tail_records;
          for (Operation& op : entry.commit.ops) {
            AtomicObject* obj = ctx.Find(op.object());
            if (obj == nullptr) {
              const auto dit = deferred.find(op.object());
              if (dit != deferred.end()) {
                if (lsn <= dit->second->lsn) {
                  // Covered by the parked image: skip without
                  // materializing — the object stays deferred.
                  ++summary->tail_skipped;
                  continue;
                }
                StatusOr<AtomicObject*> mat = materialize(dit);
                if (!mat.ok()) return mat.status();
                obj = *mat;
              } else if (ctx.Dropped(op.object())) {
                return Status::Internal(StrFormat(
                    "journal names object %s after its drop record",
                    op.object().c_str()));
              } else {
                orphan_ok.try_emplace(op.object(), false);
                continue;
              }
            }
            if (covered(op.object())) {
              // The fuzzy overshoot: this object's snapshot already
              // includes the record even though it lies past the anchor.
              ++summary->tail_skipped;
              continue;
            }
            std::vector<TailEntry>& bucket = bucket_for(obj);
            if (!bucket.empty() && !bucket.back().create_reset &&
                bucket.back().lsn == lsn) {
              bucket.back().ops.push_back(std::move(op));
            } else {
              bucket.push_back(
                  TailEntry{false, txn, lsn, OpSeq{std::move(op)}});
            }
          }
          return Status::OK();
        };

        summary->max_txn = image.max_txn;
        summary->high_lsn = image.anchor;
        CCR_RETURN_IF_ERROR(
            scan(image.anchor, [&](Lsn lsn, Journal::Entry&& entry) {
              summary->high_lsn = std::max(summary->high_lsn, lsn);
              CCR_RETURN_IF_ERROR(route(lsn, entry));
              return streamed ? drain() : Status::OK();
            }));
        for (const auto& [id, ok] : orphan_ok) {
          if (!ok) {
            return Status::Internal(StrFormat(
                "journal names unknown object %s — restart system does not "
                "match the journaled one", id.c_str()));
          }
        }

        // Fan the buckets out. Each worker owns whole buckets (claimed off
        // an atomic cursor), so a given object is replayed by exactly one
        // thread and needs no cross-thread ordering.
        const int threads =
            std::min<int>(options.replay_threads,
                          static_cast<int>(buckets.size()));
        if (threads <= 1) {
          CCR_RETURN_IF_ERROR(drain());
        } else {
          Status replay_status = Status::OK();
          std::atomic<size_t> cursor{0};
          std::mutex error_mu;
          std::vector<std::thread> pool;
          pool.reserve(static_cast<size_t>(threads));
          for (int t = 0; t < threads; ++t) {
            pool.emplace_back([&] {
              for (;;) {
                const size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= buckets.size()) return;
                auto& [obj, bucket] = buckets[i];
                const Status s = replay_bucket(obj, bucket);
                if (!s.ok()) {
                  std::lock_guard<std::mutex> lock(error_mu);
                  if (replay_status.ok()) replay_status = s;
                  return;
                }
              }
            });
          }
          for (std::thread& worker : pool) worker.join();
          if (!replay_status.ok()) return replay_status;
        }

        // Post-restart transactions must not reuse replayed ids: a reused
        // id would journal a second commit record under an id that
        // already has one.
        AdvanceTxnWatermark(summary->max_txn);
        summary->store_deferred = deferred.size();
        return Status::OK();
      },
      &summary->objects_created, &summary->objects_dropped);
}

std::shared_ptr<Transaction> TxnManager::Begin() {
  auto txn = std::make_shared<Transaction>(
      next_txn_.fetch_add(1, std::memory_order_relaxed));
  LiveStripe& stripe = live_stripe(txn->id());
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.emplace(txn->id(), txn);
  }
  begun_.fetch_add(1, std::memory_order_relaxed);
  return txn;
}

StatusOr<Value> TxnManager::Execute(Transaction* txn, const Invocation& inv) {
  MaybeEvict();
  AtomicObject* obj = directory_.Find(inv.object());
  if (obj == nullptr && store_ != nullptr) {
    // Possibly a lazily deferred object whose image lives in the store.
    StatusOr<AtomicObject*> faulted = FaultInFromStore(inv.object());
    if (faulted.ok()) {
      obj = *faulted;
    } else if (faulted.status().code() != StatusCode::kNotFound) {
      return faulted.status();
    }
  }
  if (obj == nullptr) {
    return Status::NotFound(
        StrFormat("no object named %s", inv.object().c_str()));
  }
  return obj->Execute(txn, inv);
}

StatusOr<AtomicObject*> TxnManager::FaultInFromStore(const ObjectId& id) {
  if (store_ == nullptr || Dropping(id)) {
    return Status::NotFound(StrFormat("no object named %s", id.c_str()));
  }
  StatusOr<std::string> value = store_->Get(StoreObjectKey(id));
  if (!value.ok()) return value.status();
  StatusOr<CheckpointImage::ObjectEntry> img = DecodeStoreObjectValue(*value);
  if (!img.ok()) return img.status();
  if (img->factory.empty()) {
    // A registered object's image: registered objects never leave the
    // directory, so the miss means the object is gone — a stray key must
    // not resurrect it.
    return Status::NotFound(StrFormat("no object named %s", id.c_str()));
  }
  return GetOrCreate(id, img->factory);
}

StatusOr<std::vector<Value>> TxnManager::ExecuteBatch(
    Transaction* txn, std::span<const BatchOp> ops) {
  CCR_CHECK(txn != nullptr);
  MaybeEvict();
  // Flag the transaction first: even a batch that errors out (and is then
  // aborted/retried by the caller) commits batch-atomically if the caller
  // commits whatever partial work succeeded.
  txn->set_batch_atomic();
  if (ops.empty()) return std::vector<Value>{};

  // Group ops by object without building a keyed container: sort the op
  // indices by object id, then contiguous runs of `order` are the groups.
  // The ascending-id visit order IS the canonical global lock order: every
  // batch walks objects in ascending ObjectId, so two batches can never
  // hold-and-wait against each other in a cycle. (stable_sort keeps each
  // object's ops in caller order within its run.)
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].inv.object() != ops[i].object) {
      return Status::InvalidArgument(StrFormat(
          "batch op %zu: invocation for %s filed under object %s", i,
          ops[i].inv.object().c_str(), ops[i].object.c_str()));
    }
  }
  std::vector<size_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&ops](size_t a, size_t b) {
    return ops[a].object < ops[b].object;
  });
  // runs[g] = first position in `order` of group g (plus a sentinel end).
  std::vector<size_t> runs;
  for (size_t pos = 0; pos < order.size(); ++pos) {
    if (pos == 0 || ops[order[pos - 1]].object != ops[order[pos]].object) {
      runs.push_back(pos);
    }
  }
  runs.push_back(order.size());
  const size_t groups = runs.size() - 1;

  // One directory pass: stripe-grouped shared-mode lookups for every key at
  // once, then GetOrCreate only for the misses that name a factory.
  std::vector<const ObjectId*> ids;
  ids.reserve(groups);
  for (size_t g = 0; g < groups; ++g) ids.push_back(&ops[order[runs[g]]].object);
  std::vector<AtomicObject*> found;
  directory_.FindBatch(ids, &found);
  for (size_t g = 0; g < groups; ++g) {
    if (found[g] != nullptr) continue;
    // First non-empty factory any of the group's ops names.
    const std::string* factory = nullptr;
    for (size_t pos = runs[g]; pos < runs[g + 1] && factory == nullptr;
         ++pos) {
      if (!ops[order[pos]].factory.empty()) factory = &ops[order[pos]].factory;
    }
    if (factory == nullptr) {
      if (store_ != nullptr) {
        StatusOr<AtomicObject*> faulted = FaultInFromStore(*ids[g]);
        if (faulted.ok()) {
          found[g] = *faulted;
          continue;
        }
        if (faulted.status().code() != StatusCode::kNotFound) {
          return faulted.status();
        }
      }
      return Status::NotFound(
          StrFormat("no object named %s", ids[g]->c_str()));
    }
    StatusOr<AtomicObject*> created = GetOrCreate(*ids[g], *factory);
    if (!created.ok()) return created.status();
    found[g] = *created;
  }

  // Execute each object's op-group under one acquisition of its mutex, in
  // canonical order, scattering results back to the callers' positions.
  std::vector<Value> results(ops.size());
  std::vector<const Invocation*> invs;
  std::vector<Value> group_results;
  for (size_t g = 0; g < groups; ++g) {
    invs.clear();
    for (size_t pos = runs[g]; pos < runs[g + 1]; ++pos) {
      invs.push_back(&ops[order[pos]].inv);
    }
    CCR_RETURN_IF_ERROR(found[g]->ExecuteGroup(txn, invs, &group_results));
    for (size_t k = 0; k < invs.size(); ++k) {
      results[order[runs[g] + k]] = std::move(group_results[k]);
    }
  }
  return results;
}

Status TxnManager::Commit(Transaction* txn) {
  // The ack-latency clock only matters when a pipeline will record it;
  // without one, the commit fast path reads no clock at all.
  const auto commit_start = pipeline_ == nullptr
                                ? std::chrono::steady_clock::time_point{}
                                : std::chrono::steady_clock::now();
  StatusOr<Lsn> high_lsn = CommitAsync(txn);
  if (!high_lsn.ok()) return high_lsn.status();
  // The acknowledgment point: with a pipeline attached, block (holding no
  // locks) until the transaction's highest LSN is durable. LSNs are
  // assigned in commit order under the journal mutex, so waiting for our
  // own highest LSN transitively waits for every commit this transaction
  // could have read from — an acknowledged commit never depends on a
  // lost one.
  if (pipeline_ != nullptr && *high_lsn != kNoLsn) {
    pipeline_->WaitDurable(*high_lsn);
    pipeline_->RecordAckLatency(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - commit_start)
            .count()));
  }
  return Status::OK();
}

StatusOr<Lsn> TxnManager::CommitAsync(Transaction* txn) {
  CCR_CHECK(txn != nullptr);
  if (!txn->active()) {
    return Status::IllegalState("commit of a finished transaction");
  }
  if (!txn->TryLatchCommit()) {
    // A kill won the arbitration (possibly racing this very call): the
    // victim must abort; committing would violate the victim choice another
    // waiter depends on. The CAS makes the active->committed transition
    // atomic w.r.t. Kill — a kill can no longer land between a flag check
    // and the per-object commit loop.
    const Status s = Abort(txn);
    // A failed abort here would leak the victim's operation locks forever —
    // every waiter parked on them would starve. It can only fail if the
    // transaction already finished, which the active() check above and the
    // one-driving-thread contract exclude; anything else is corruption.
    CCR_CHECK_MSG(s.ok(), "abort of commit-racing kill victim %s failed: %s",
                  TxnName(txn->id()).c_str(), s.ToString().c_str());
    return Status::Deadlock(StrFormat(
        "%s was killed before commit", TxnName(txn->id()).c_str()));
  }
  // Atomic commitment: commit at every touched object (single-process, so
  // no prepare phase is needed — there is no partial failure mode). Each
  // object's lock is released as its Commit returns; under a group-commit
  // pipeline the records are only sequenced here and the disk sync is
  // still pending when the last lock is dropped. No global manager lock
  // anywhere on this path: the live-table stripe below is keyed by txn id
  // and the outcome counter is a lone atomic.
  Lsn high_lsn = kNoLsn;
  if (txn->batch_atomic() && txn->touched().size() > 1) {
    high_lsn = CommitBatchAtomic(txn);
  } else {
    for (AtomicObject* obj : txn->touched()) {
      high_lsn = std::max(high_lsn, obj->Commit(txn->id()));
    }
  }
  txn->set_state(TxnState::kCommitted);
  detector_.Forget(txn->id());
  {
    LiveStripe& stripe = live_stripe(txn->id());
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.erase(txn->id());
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  return high_lsn;
}

Lsn TxnManager::CommitBatchAtomic(Transaction* txn) {
  // Canonical order: the same ascending-ObjectId walk ExecuteBatch uses to
  // acquire the objects, and a total order — concurrent batch commits can
  // never hold-and-wait in a cycle. Every other multi-lock holder (the
  // checkpoint walk, MarkDropped, plain Commit) takes one object mutex at a
  // time, so adding this ordered multi-acquisition keeps the lock hierarchy
  // acyclic: objects (canonical order) -> journal -> pipeline.
  std::vector<AtomicObject*> objs = txn->touched();
  std::sort(objs.begin(), objs.end(),
            [](const AtomicObject* a, const AtomicObject* b) {
              return a->id() < b->id();
            });
  Journal* journal = objs.front()->recovery().journal();
  for (AtomicObject* obj : objs) {
    if (obj->recovery().journal() != journal) {
      // Mixed journals: no single append can cover the batch. Degrade to
      // per-object records; the caller still waits only once, on the
      // highest LSN.
      Lsn high = kNoLsn;
      for (AtomicObject* o : txn->touched()) {
        high = std::max(high, o->Commit(txn->id()));
      }
      return high;
    }
  }

  // Hold every object's commit mutex from redo collection through the
  // single journal append and LSN install. Two invariants depend on this
  // span: (a) early lock release — the record's LSN is assigned before any
  // of the batch's operation locks become visible as released to a
  // *committing* successor, so every commit that read from this batch
  // sequences a higher LSN and an acknowledged batch never depends on a
  // lost one; (b) fuzzy-checkpoint exactness — SnapshotForCheckpoint takes
  // the same mutex, so no checkpoint can pair the batch's new state with a
  // pre-batch LSN.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(objs.size());
  for (AtomicObject* obj : objs) locks.push_back(obj->LockForBatchCommit());

  OpSeq redo;
  std::vector<size_t> contributed(objs.size(), 0);
  Lsn high_lsn = kNoLsn;
  for (size_t i = 0; i < objs.size(); ++i) {
    const size_t before = redo.size();
    // A recovery manager without batch support journals its own per-object
    // record (base-class fallback) and reports that LSN here.
    high_lsn =
        std::max(high_lsn, objs[i]->CommitBatchedLocked(txn->id(), &redo));
    contributed[i] = redo.size() - before;
  }
  if (journal != nullptr && !redo.empty()) {
    const Lsn lsn = journal->AppendCommit(txn->id(), std::move(redo));
    if (lsn != kNoLsn) {
      for (size_t i = 0; i < objs.size(); ++i) {
        if (contributed[i] > 0) objs[i]->InstallBatchLsnLocked(lsn);
      }
      high_lsn = std::max(high_lsn, lsn);
    }
  }
  // Deferred per-object commit state transitions (UIP's checkpoint fold,
  // DU's intention application) run after the record is sequenced: the
  // group-commit flusher is already syncing the batch while this CPU work
  // proceeds, instead of the sync queueing behind it. Each object's mutex
  // drops as soon as its own finalize completes — the record's LSN is
  // already assigned, so invariant (a) holds, and the object's state is
  // commit-complete, so a checkpoint snapshot taken the instant the lock
  // releases pairs the new state with the new LSN.
  for (size_t i = 0; i < objs.size(); ++i) {
    objs[i]->FinalizeBatchCommitLocked(txn->id());
    locks[i].unlock();
  }
  return high_lsn;
}

Status TxnManager::Abort(Transaction* txn) {
  CCR_CHECK(txn != nullptr);
  if (!txn->active()) {
    return Status::IllegalState("abort of a finished transaction");
  }
  for (AtomicObject* obj : txn->touched()) {
    obj->Abort(txn->id());
  }
  txn->set_state(TxnState::kAborted);
  detector_.Forget(txn->id());
  {
    LiveStripe& stripe = live_stripe(txn->id());
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.txns.erase(txn->id());
  }
  aborted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TxnManager::RunTransaction(
    const std::function<Status(Transaction*)>& body) {
  Random backoff_rng(next_txn_.load(std::memory_order_relaxed) * 7919 + 17);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    std::shared_ptr<Transaction> txn = Begin();
    Status s = body(txn.get());
    if (s.ok()) {
      s = Commit(txn.get());
      if (s.ok()) return s;
    } else if (txn->active()) {
      Abort(txn.get());
    }
    if (!s.IsRetryable()) return s;
    // A failure on the last attempt is not retried: it counts no retry and
    // sleeps no backoff, so retries == attempts - 1 exactly.
    if (attempt == options_.max_retries) break;
    retries_.fetch_add(1, std::memory_order_relaxed);
    // Randomized bounded backoff to break livelock among symmetric retriers.
    const int shift = std::min(attempt, 8);
    const uint64_t max_us = 32ull << shift;
    std::this_thread::sleep_for(
        std::chrono::microseconds(backoff_rng.Uniform(max_us) + 1));
  }
  return Status::Aborted("transaction retry budget exhausted");
}

void TxnManager::AdvanceTxnWatermark(TxnId txn) {
  TxnId expected = next_txn_.load(std::memory_order_relaxed);
  while (txn + 1 > expected &&
         !next_txn_.compare_exchange_weak(expected, txn + 1,
                                          std::memory_order_relaxed)) {
  }
}

void TxnManager::Kill(TxnId txn) {
  std::shared_ptr<Transaction> victim;
  {
    LiveStripe& stripe = live_stripe(txn);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.txns.find(txn);
    if (it == stripe.txns.end()) return;  // already finished
    victim = it->second;
  }
  // Arbitrate against a racing Commit: if the commit latched first, this
  // kill is a no-op (the commit releases the locks, which unblocks the
  // cycle just as the abort would have).
  if (!victim->TryKill()) return;
  kills_.fetch_add(1, std::memory_order_relaxed);
  // Wake the victim directly at the object it is blocked at (if any), so a
  // kill is observed immediately rather than at the next timeout. TryKill
  // (seq_cst) precedes this load, pairing with the victim's registration
  // store + pre-sleep killed() check in AtomicObject::ExecuteLoop.
  if (AtomicObject* at = victim->waiting_at()) at->WakeKilled(victim->id());
}

History TxnManager::SnapshotHistory() const { return recorder_.Snapshot(); }

ManagerStats TxnManager::stats() const {
  ManagerStats stats;
  stats.begun = begun_.load(std::memory_order_relaxed);
  stats.committed = committed_.load(std::memory_order_relaxed);
  stats.aborted = aborted_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.kills = kills_.load(std::memory_order_relaxed);
  return stats;
}

ObjectStats TxnManager::AggregateObjectStats() const {
  ObjectStats total;
  // Retired (dropped) objects keep contributing their counters: aggregates
  // must stay monotone across drops — drivers report deltas per run.
  directory_.ForEach(
      [&total](AtomicObject* obj) {
        const ObjectStats s = obj->stats();
        total.executes += s.executes;
        total.conflicts += s.conflicts;
        total.waits += s.waits;
        total.deadlock_victims += s.deadlock_victims;
        total.timeouts += s.timeouts;
        total.wakeups += s.wakeups;
        total.spurious_wakeups += s.spurious_wakeups;
        total.kill_wakeups += s.kill_wakeups;
        total.max_queue_depth =
            std::max(total.max_queue_depth, s.max_queue_depth);
        total.evictions += s.evictions;
        total.fault_ins += s.fault_ins;
        total.wait_time_us.Merge(s.wait_time_us);
      },
      /*include_retired=*/true);
  return total;
}

}  // namespace ccr
