//! The deployed database: SQL front-ends + replicated storage pods.
//!
//! [`SqlCluster`] mirrors the paper's TiDB deployment (§5.1): stateless SQL
//! front-end pods that parse/plan/drive queries and storage pods that hold
//! Raft-replicated regions of MVCC data behind per-pod block caches. Every
//! query charges CPU to the pods that did the work, with categories mapping
//! onto the paper's §5.3 breakdown, and returns a [`QueryReceipt`] carrying
//! rows, MVCC versions, bytes, latency and counters.
//!
//! The read path (and therefore the §5.5 version-check path) is:
//! front-end parse+plan → transaction-layer lease validation → RPC to the
//! region leader → block-cache/KV row fetch → full row shipped back →
//! front-end projection. A version check runs the *whole* path and returns
//! 8 bytes — which is exactly why it erases the cache's savings.

use crate::block::{BlockCache, BlockConfig};
use crate::cost::StorageCostConfig;
use crate::durability::{DurabilityConfig, DurabilityStats, DurableStore};
use crate::error::{StoreError, StoreResult};
use crate::kv::{index_key, index_prefix, record_key_into, FlatBytes, KvEngine};
use crate::raft::{LogEntry, RaftGroup};
use crate::row::Row;
use crate::schema::Catalog;
use crate::sql::exec::{execute, ExecStats, RowStore, WriteBatch};
use crate::sql::parser::parse;
use crate::sql::plan::{plan, PhysicalPlan};
use crate::value::Datum;
use cachekit::ring::stable_hash;
use simnet::net::LinkSpec;
use simnet::{CpuCategory, CpuMeter, SimDuration, SimTime};

/// Deployment shape and cost knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// SQL front-end pod count (TiDB pods; paper uses 3).
    pub frontends: usize,
    /// Storage pod count (TiKV pods; paper uses 3).
    pub storage_nodes: usize,
    /// Replication factor (3 in the paper's TiKV).
    pub replicas: usize,
    /// Region (raft group) count; more regions spread leadership.
    pub regions: u64,
    /// Block-cache DRAM per storage pod — the paper's `s_D` knob.
    pub block_cache_bytes: u64,
    /// Non-cache memory provisioned per storage pod (engine overheads); the
    /// paper provisions 15 GB/pod total.
    pub base_mem_bytes: u64,
    /// Memory provisioned per SQL front-end pod (TiDB pods are mostly
    /// stateless but carry session/plan caches).
    pub frontend_mem_bytes: u64,
    /// Leader lease duration.
    pub lease: SimDuration,
    /// Front-end ↔ storage link.
    pub link: LinkSpec,
    pub cost: StorageCostConfig,
    pub block: BlockConfig,
    /// WAL + snapshot durability for storage pods. Off by default — pods
    /// are implicitly stable and crashes only toggle raft liveness.
    pub durability: DurabilityConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            frontends: 3,
            storage_nodes: 3,
            replicas: 3,
            regions: 12,
            block_cache_bytes: 1 << 30, // 1 GiB per pod
            base_mem_bytes: 2 << 30,
            frontend_mem_bytes: 4 << 30,
            lease: SimDuration::from_secs(10),
            link: LinkSpec {
                base_latency: SimDuration::from_micros(25),
                bandwidth_bytes_per_sec: 1_250_000_000,
            },
            cost: StorageCostConfig::default(),
            block: BlockConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// One storage pod: CPU meter, KV engine, block cache.
#[derive(Debug)]
pub struct StoragePod {
    pub cpu: CpuMeter,
    pub kv: KvEngine,
    pub block_cache: BlockCache,
}

/// One SQL front-end pod.
#[derive(Debug, Default)]
pub struct FrontendPod {
    pub cpu: CpuMeter,
}

/// What one statement cost and returned.
#[derive(Debug, Clone, Default)]
pub struct QueryReceipt {
    pub rows: Vec<Row>,
    /// MVCC version per returned row.
    pub versions: Vec<u64>,
    /// Commit version if this was a write.
    pub write_version: Option<u64>,
    /// CPU charged to front-end pods by this statement.
    pub frontend_cpu: SimDuration,
    /// CPU charged to storage pods by this statement.
    pub storage_cpu: SimDuration,
    /// End-to-end latency inside the database (front-end arrival → response
    /// ready). The caller adds its own hop to the front-end.
    pub latency: SimDuration,
    /// Logical bytes of the SQL text + parameters.
    pub request_bytes: u64,
    /// Logical bytes of the returned rows.
    pub response_bytes: u64,
    /// Front-end ↔ storage messages.
    pub storage_rpcs: u64,
    pub block_hits: u64,
    pub block_misses: u64,
    pub stats: ExecStats,
}

/// A write that has been prepared (front-end work done, batches built) but
/// not yet committed — used by the Figure 8 delayed-writes scenario.
#[derive(Debug)]
pub struct DelayedWrite {
    batch: WriteBatch,
    receipt: QueryReceipt,
}

/// The deployed cluster.
pub struct SqlCluster {
    pub config: ClusterConfig,
    pub catalog: Catalog,
    pub frontends: Vec<FrontendPod>,
    pub storages: Vec<StoragePod>,
    regions: Vec<RaftGroup>,
    /// Per-pod durable state (WAL + snapshot); inert when durability is off.
    durable: Vec<DurableStore>,
    /// Per pod: the engine a crash took off it, until recovery derives the
    /// durable image from it.
    crash_images: Vec<Option<KvEngine>>,
    next_frontend: usize,
    /// Cluster-wide commit version counter (the TSO analogue).
    tso: u64,
    /// Front-end plan cache: parsing and planning are pure functions of
    /// `(catalog, sql)`, and the catalog is fixed at construction (DDL is
    /// test-only), so repeated statement shapes skip the parser on the wall
    /// clock. Simulated CPU is untouched — cached executions still charge
    /// the full `parse_plan_cost`, exactly like TiDB bills a plan-cache hit
    /// to its front-end in the paper's deployment.
    plan_cache: std::collections::HashMap<String, PhysicalPlan>,
}

/// Distinct statement shapes worth remembering per cluster; beyond this the
/// cache stops filling (it never evicts — the workloads that matter reuse a
/// handful of shapes).
const PLAN_CACHE_CAP: usize = 256;

/// A statement parsed + planned once against this cluster's (immutable)
/// catalog, for [`SqlCluster::execute_cached`]. Charges stay those of the
/// original text — only the wall-clock parser work is skipped.
#[derive(Debug, Clone)]
pub struct CachedStatement {
    physical: PhysicalPlan,
    sql_bytes: usize,
}

impl SqlCluster {
    pub fn new(catalog: Catalog, config: ClusterConfig) -> Self {
        assert!(config.frontends > 0 && config.storage_nodes > 0);
        let replicas = config.replicas.min(config.storage_nodes).max(1);
        let storages = (0..config.storage_nodes)
            .map(|_| StoragePod {
                cpu: CpuMeter::new(),
                kv: KvEngine::new(),
                block_cache: BlockCache::new(config.block_cache_bytes, config.block),
            })
            .collect();
        let regions = (0..config.regions.max(1))
            .map(|r| {
                // Spread replica sets and leadership round-robin over pods.
                let members: Vec<usize> = (0..replicas)
                    .map(|i| ((r as usize) + i) % config.storage_nodes)
                    .collect();
                RaftGroup::new(r, members, SimTime::ZERO, config.lease)
            })
            .collect();
        let region_count = config.regions.max(1) as usize;
        let durable = (0..config.storage_nodes)
            .map(|_| DurableStore::new(config.durability, region_count))
            .collect();
        SqlCluster {
            catalog,
            frontends: (0..config.frontends)
                .map(|_| FrontendPod::default())
                .collect(),
            storages,
            regions,
            durable,
            crash_images: vec![None; config.storage_nodes],
            next_frontend: 0,
            tso: 0,
            plan_cache: std::collections::HashMap::new(),
            config,
        }
    }

    /// Which region a raw key belongs to.
    fn region_of(&self, key: &[u8]) -> usize {
        (stable_hash(key) % self.regions.len() as u64) as usize
    }

    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    pub fn region(&self, idx: usize) -> &RaftGroup {
        &self.regions[idx]
    }

    pub fn region_mut(&mut self, idx: usize) -> &mut RaftGroup {
        &mut self.regions[idx]
    }

    /// Memory provisioned per storage pod (block cache + base).
    pub fn storage_mem_bytes_per_node(&self) -> u64 {
        self.config.block_cache_bytes + self.config.base_mem_bytes
    }

    /// Live logical bytes across one copy of the data (disk billing basis).
    pub fn primary_data_bytes(&self) -> u64 {
        // Every pod holds a replica subset; sum one pod set / replicas.
        let total: u64 = self.storages.iter().map(|s| s.kv.bytes_written()).sum();
        total / self.config.replicas.max(1) as u64
    }

    /// Reset all CPU meters and cache statistics (between warmup and
    /// measurement).
    pub fn reset_metrics(&mut self) {
        for f in &mut self.frontends {
            f.cpu.reset();
        }
        for s in &mut self.storages {
            s.cpu.reset();
            s.block_cache.reset_stats();
        }
        for d in &mut self.durable {
            d.stats.reset();
        }
    }

    /// Renew leases / catch up stragglers on every region (heartbeat tick).
    pub fn tick(&mut self, now: SimTime) {
        for r in 0..self.regions.len() {
            let ops = self.regions[r].tick(now);
            let region = &self.regions[r];
            for op in ops {
                let entry = region.entry(op.index);
                let pod = region.replicas[op.slot];
                let storage = &mut self.storages[pod];
                for m in &entry.batch.mutations {
                    storage.kv.put_at(&m.key, m.value.as_deref(), entry.version);
                }
                let cost = self.config.cost.raft_follower_cost(entry.bytes);
                storage.cpu.charge(CpuCategory::Replication, cost);
                durable_apply(&self.config, storage, &mut self.durable[pod], r, entry);
            }
        }
    }

    /// Simulated machine crash of one storage pod (durability on): all
    /// volatile state — memtables, block cache, un-fsynced WAL tail — is
    /// discarded and every region replica hosted on the pod goes down.
    /// Bring it back with [`SqlCluster::recover_pod`]. The engine is parked,
    /// not dropped: recovery derives the durable image from it, so a second
    /// crash before recovery keeps the first image.
    pub fn crash_pod(&mut self, pod: usize) {
        assert!(
            self.config.durability.enabled(),
            "crash_pod models durable-storage crashes; enable durability"
        );
        let lost_blocks = self.storages[pod].block_cache.resident_blocks() as u64;
        self.durable[pod].stats.cold_refill_cpu_us +=
            (self.config.cost.block_miss_us * lost_blocks as f64) as u64;
        self.storages[pod].block_cache.wipe();
        let live = std::mem::take(&mut self.storages[pod].kv);
        self.crash_images[pod].get_or_insert(live);
        for region in self.regions.iter_mut() {
            if let Some(slot) = region.replicas.iter().position(|&p| p == pod) {
                region.crash(slot);
            }
        }
    }

    /// Recover a crashed pod: load its snapshot, replay the synced WAL
    /// prefix, rejoin each hosted region claiming exactly the durable
    /// prefix, re-elect leaders for regions the crash left leaderless, and
    /// let the quorum re-replicate the lost tail. Returns the simulated
    /// recovery wall time (SSD seek + snapshot load + WAL replay).
    pub fn recover_pod(&mut self, pod: usize, now: SimTime) -> SimDuration {
        assert!(
            self.config.durability.enabled(),
            "recover_pod models durable-storage recovery; enable durability"
        );
        let image = match self.crash_images[pod].take() {
            Some(image) => image,
            // Not crashed since its last recovery (the fault engine restarts
            // a pod once per region whose leader it hosted): it loses its
            // volatile state all the same.
            None => std::mem::take(&mut self.storages[pod].kv),
        };
        let outcome = self.durable[pod].crash_and_recover(image, &self.config.cost);
        self.storages[pod].kv = outcome.kv;
        self.storages[pod]
            .cpu
            .charge(CpuCategory::KvExec, outcome.replay_cpu);
        for (r, region) in self.regions.iter_mut().enumerate() {
            if let Some(slot) = region.replicas.iter().position(|&p| p == pod) {
                region.restart_recovered(slot, outcome.durable_applied[r]);
            }
        }
        for region in self.regions.iter_mut() {
            if region.leader().is_err() {
                let _ = region.elect(now);
            }
        }
        // Quorum catch-up re-applies (and re-WALs) everything beyond the
        // recovered prefix.
        self.tick(now);
        outcome.recovery_time
    }

    pub fn durability_enabled(&self) -> bool {
        self.config.durability.enabled()
    }

    /// Durability counters merged across pods.
    pub fn durability_stats(&self) -> DurabilityStats {
        let mut s = DurabilityStats::default();
        for d in &self.durable {
            s.merge(&d.stats);
        }
        s
    }

    /// Bytes resident on the SSD tier across pods (snapshots + WALs) — the
    /// basis for $/GB SSD billing.
    pub fn ssd_resident_bytes(&self) -> u64 {
        self.durable.iter().map(|d| d.ssd_resident_bytes()).sum()
    }

    /// Load rows directly into the storage tier, bypassing the SQL path and
    /// CPU accounting — the "restore from backup" primitive experiments use
    /// to seed datasets. Rows are validated, indexed and replicated exactly
    /// as SQL inserts would be. Returns the number of rows loaded.
    ///
    /// Each row is encoded once into one sorted run of entries, and every
    /// pod builds its engine from the entries of the regions it hosts (see
    /// [`KvEngine::load_sorted`]). A row that fails validation ends the
    /// load: the rows before it stay loaded, as if inserted one by one.
    pub fn bulk_load<I>(&mut self, table: &str, rows: I) -> StoreResult<usize>
    where
        I: IntoIterator<Item = Vec<Datum>>,
    {
        struct LoadEntry {
            key: FlatBytes,
            version: u64,
            value: FlatBytes,
            region: usize,
        }
        let schema = self.catalog.get(table)?.clone();
        let mut run: Vec<LoadEntry> = Vec::new();
        let mut record = Vec::new();
        let mut encoded = Vec::new();
        let mut count = 0usize;
        let mut invalid = Ok(());
        for values in rows {
            let row = Row(values);
            if let Err(e) = schema.validate(&row) {
                invalid = Err(e);
                break;
            }
            let pk = schema.pk_of(&row);
            self.tso += 1;
            let version = self.tso;
            record_key_into(&mut record, table, pk);
            row.encode_into(&mut encoded);
            for &col in &schema.indexes {
                let ik = index_key(table, col, row.get(col).unwrap_or(&Datum::Null), pk);
                run.push(LoadEntry {
                    region: self.region_of(&ik),
                    key: FlatBytes::new(&ik),
                    version,
                    value: FlatBytes::new(&record),
                });
            }
            run.push(LoadEntry {
                region: self.region_of(&record),
                key: FlatBytes::new(&record),
                version,
                value: FlatBytes::new(&encoded),
            });
            count += 1;
        }
        // Stable: a key loaded twice keeps its versions ascending.
        run.sort_by(|a, b| a.key.cmp(&b.key));
        for (pod, storage) in self.storages.iter_mut().enumerate() {
            let regions = &self.regions;
            storage.kv.load_sorted(
                run.iter()
                    .filter(|e| regions[e.region].replicas.contains(&pod))
                    .map(|e| (e.key.as_slice(), e.version, e.value.as_slice())),
            );
        }
        invalid?;
        // A restore-from-backup lands durable: snapshot each pod so the
        // loaded dataset survives crashes without replaying a giant WAL.
        // Like the load itself, this charges no CPU.
        if self.config.durability.enabled() {
            for pod in 0..self.storages.len() {
                self.durable[pod].snapshot_now(&self.storages[pod].kv, &self.config.cost);
            }
        }
        Ok(count)
    }

    /// Execute one SQL statement. `now` is the simulation time of arrival at
    /// the front-end.
    pub fn execute(
        &mut self,
        sql: &str,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        // Plan-cache hit: lift the entry out, run it, put it back — no
        // clone, no allocation, identical receipts (the plan is a pure
        // function of the immutable catalog and the SQL text).
        if let Some((sql_owned, physical)) = self.plan_cache.remove_entry(sql) {
            let out = self.execute_plan(&physical, sql.len(), params, now);
            self.plan_cache.insert(sql_owned, physical);
            return out;
        }
        let stmt = parse(sql)?;
        let physical = plan(&self.catalog, &stmt)?;
        let out = self.execute_plan(&physical, sql.len(), params, now);
        if self.plan_cache.len() < PLAN_CACHE_CAP {
            self.plan_cache.insert(sql.to_string(), physical);
        }
        out
    }

    /// Execute a pre-planned statement (plan-cache ablation path: front-end
    /// parse/plan CPU is skipped, only connection handling is charged).
    pub fn execute_prepared(
        &mut self,
        physical: &PhysicalPlan,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        let mut receipt = self.frontend_admission(0, true);
        self.run_plan(physical, params, now, &mut receipt)?;
        Ok(receipt)
    }

    /// Plan a statement for later `execute_prepared` calls.
    pub fn prepare(&self, sql: &str) -> StoreResult<PhysicalPlan> {
        plan(&self.catalog, &parse(sql)?)
    }

    /// Parse + plan a statement once for repeated [`execute_cached`] calls.
    /// Unlike [`prepare`]/[`execute_prepared`] (the plan-cache *ablation*,
    /// which charges only connection handling), a cached statement is a pure
    /// wall-clock optimization: execution charges the full
    /// `parse_plan_cost` of the original text, byte-identical to
    /// [`execute`].
    ///
    /// [`prepare`]: SqlCluster::prepare
    /// [`execute_prepared`]: SqlCluster::execute_prepared
    /// [`execute_cached`]: SqlCluster::execute_cached
    /// [`execute`]: SqlCluster::execute
    pub fn prepare_cached(&self, sql: &str) -> StoreResult<CachedStatement> {
        Ok(CachedStatement {
            physical: plan(&self.catalog, &parse(sql)?)?,
            sql_bytes: sql.len(),
        })
    }

    /// Execute a [`prepare_cached`] statement — receipts and CPU charges
    /// are exactly those of `execute` on the original SQL text.
    ///
    /// [`prepare_cached`]: SqlCluster::prepare_cached
    pub fn execute_cached(
        &mut self,
        stmt: &CachedStatement,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        self.execute_plan(&stmt.physical, stmt.sql_bytes, params, now)
    }

    fn frontend_admission(&mut self, sql_bytes: usize, prepared: bool) -> QueryReceipt {
        let fe = self.next_frontend % self.frontends.len();
        self.next_frontend = self.next_frontend.wrapping_add(1);
        let cost = if prepared {
            SimDuration::from_micros_f64(self.config.cost.conn_handling_us)
        } else {
            self.config.cost.parse_plan_cost(sql_bytes)
        };
        self.frontends[fe]
            .cpu
            .charge(CpuCategory::SqlFrontend, cost);
        QueryReceipt {
            frontend_cpu: cost,
            latency: cost,
            request_bytes: sql_bytes as u64,
            ..Default::default()
        }
    }

    fn execute_plan(
        &mut self,
        physical: &PhysicalPlan,
        sql_bytes: usize,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        let _span = simnet::prof_span!("sql_execute_plan");
        let mut receipt = self.frontend_admission(sql_bytes, false);
        receipt.request_bytes += params.iter().map(|d| d.encoded_size()).sum::<u64>();
        self.run_plan(physical, params, now, &mut receipt)?;
        Ok(receipt)
    }

    fn run_plan(
        &mut self,
        physical: &PhysicalPlan,
        params: &[Datum],
        now: SimTime,
        receipt: &mut QueryReceipt,
    ) -> StoreResult<()> {
        let fe = (self.next_frontend.wrapping_sub(1)) % self.frontends.len();

        // Transaction layer: consistent reads validate the leader lease.
        if physical.is_read() {
            let lease_cost = SimDuration::from_micros_f64(self.config.cost.txn_lease_check_us);
            self.frontends[fe]
                .cpu
                .charge(CpuCategory::TxnLease, lease_cost);
            receipt.frontend_cpu += lease_cost;
            receipt.latency += lease_cost;
        }

        // Drive the executor with a store that charges pods as it fetches.
        let outcome = {
            let mut store = ClusterRowStore {
                storages: &mut self.storages,
                regions: &self.regions,
                cost: &self.config.cost,
                link: &self.config.link,
                receipt,
                now,
                region_count: self.config.regions.max(1) as usize,
            };
            execute(&self.catalog, physical, params, &mut store)?
        };
        receipt.rows = outcome.rows;
        receipt.versions = outcome.versions;
        receipt.stats = outcome.stats;

        // Front-end post-processing per returned row.
        let post = SimDuration::from_micros_f64(
            self.config.cost.frontend_per_row_us * receipt.rows.len() as f64,
        );
        self.frontends[fe]
            .cpu
            .charge(CpuCategory::SqlFrontend, post);
        receipt.frontend_cpu += post;
        receipt.latency += post;
        receipt.response_bytes = receipt.rows.iter().map(|r| r.encoded_size()).sum();

        // Writes go through Raft.
        if let Some(batch) = outcome.write {
            let version = self.commit_batch(&batch, now, receipt)?;
            receipt.write_version = Some(version);
        }
        Ok(())
    }

    /// Route a write batch through the raft groups of the touched regions.
    fn commit_batch(
        &mut self,
        batch: &WriteBatch,
        now: SimTime,
        receipt: &mut QueryReceipt,
    ) -> StoreResult<u64> {
        let _span = simnet::prof_span!("commit_batch");
        if batch.is_empty() {
            // e.g. UPDATE matching zero rows: still a valid write statement.
            self.tso += 1;
            return Ok(self.tso);
        }
        // Group mutations by region.
        let mut per_region: std::collections::BTreeMap<usize, WriteBatch> =
            std::collections::BTreeMap::new();
        for m in &batch.mutations {
            let r = self.region_of(&m.key);
            let sub = per_region.entry(r).or_insert_with(|| WriteBatch {
                table: batch.table.clone(),
                ..Default::default()
            });
            sub.mutations.push(m.clone());
            sub.logical_bytes += m.value.as_ref().map(|v| v.len() as u64).unwrap_or(0);
        }
        // One commit version for the statement (TSO-style).
        self.tso += 1;
        let version = self.tso;
        // The record mutation's logical bytes dominate; spread the logical
        // write size across regions proportionally to physical size.
        for (region_idx, sub) in per_region {
            let leader = self.regions[region_idx].leader()?;
            // RPC front-end → leader carrying the batch.
            let bytes = 64
                + sub
                    .logical_bytes
                    .max(batch.logical_bytes / batch.mutations.len().max(1) as u64);
            self.charge_rpc(leader, bytes, 16, receipt, now);

            let leader_cost = self.config.cost.raft_leader_cost(bytes);
            self.storages[leader]
                .cpu
                .charge(CpuCategory::Replication, leader_cost);
            receipt.storage_cpu += leader_cost;

            let ops = self.regions[region_idx].propose(sub, version, now)?;
            let region = &self.regions[region_idx];
            let mut max_follower = SimDuration::ZERO;
            for op in ops {
                let entry = region.entry(op.index);
                let pod = region.replicas[op.slot];
                let storage = &mut self.storages[pod];
                for m in &entry.batch.mutations {
                    storage.kv.put_at(&m.key, m.value.as_deref(), entry.version);
                }
                let kv_cost = SimDuration::from_micros_f64(
                    self.config.cost.kv_write_us * entry.batch.mutations.len() as f64,
                );
                let repl_cost = self.config.cost.raft_follower_cost(entry.bytes);
                storage.cpu.charge(CpuCategory::KvExec, kv_cost);
                storage.cpu.charge(CpuCategory::Replication, repl_cost);
                receipt.storage_cpu += kv_cost + repl_cost;
                receipt.storage_cpu += durable_apply(
                    &self.config,
                    storage,
                    &mut self.durable[pod],
                    region_idx,
                    entry,
                );
                max_follower = max_follower.max(repl_cost);
            }
            // Quorum round trip: leader → follower → ack.
            receipt.latency += self.config.link.delivery_time(bytes) * 2 + max_follower;
        }
        Ok(version)
    }

    /// Charge one front-end↔storage round trip (request `req_bytes` out,
    /// `resp_bytes` back) and add its latency to the receipt.
    fn charge_rpc(
        &mut self,
        pod: usize,
        resp_bytes: u64,
        req_bytes: u64,
        receipt: &mut QueryReceipt,
        _now: SimTime,
    ) {
        let fe = (self.next_frontend.wrapping_sub(1)) % self.frontends.len();
        let fe_cost =
            self.config.cost.rpc_side_cost(req_bytes) + self.config.cost.rpc_side_cost(resp_bytes);
        let pod_cost = fe_cost;
        self.frontends[fe]
            .cpu
            .charge(CpuCategory::RpcStack, fe_cost);
        self.storages[pod]
            .cpu
            .charge(CpuCategory::RpcStack, pod_cost);
        receipt.frontend_cpu += fe_cost;
        receipt.storage_cpu += pod_cost;
        receipt.storage_rpcs += 1;
        receipt.latency += self.config.link.delivery_time(req_bytes)
            + self.config.link.delivery_time(resp_bytes)
            + fe_cost
            + pod_cost;
    }

    /// The §5.5 version check: `SELECT _version FROM <table> WHERE pk = ?`,
    /// running the complete read path but returning only 8 bytes.
    pub fn version_check(
        &mut self,
        table: &str,
        pk: &Datum,
        now: SimTime,
    ) -> StoreResult<(Option<u64>, QueryReceipt)> {
        let schema = self.catalog.get(table)?;
        let pk_col = schema.columns[schema.primary_key].name.clone();
        let sql = format!("SELECT _version FROM {table} WHERE {pk_col} = ?");
        let receipt = self.execute(&sql, std::slice::from_ref(pk), now)?;
        let version = receipt
            .rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(|d| d.as_int())
            .map(|v| v as u64);
        Ok((version, receipt))
    }

    /// Prepare a write but do not commit it — models the paper's Figure 8
    /// delayed write. Front-end and executor read costs are charged now;
    /// replication happens at [`SqlCluster::commit_delayed`].
    pub fn begin_delayed_write(
        &mut self,
        sql: &str,
        params: &[Datum],
        now: SimTime,
    ) -> StoreResult<DelayedWrite> {
        let stmt = parse(sql)?;
        let physical = plan(&self.catalog, &stmt)?;
        if physical.is_read() {
            return Err(StoreError::Unsupported("delayed read".to_string()));
        }
        let mut receipt = self.frontend_admission(sql.len(), false);
        let outcome = {
            let mut store = ClusterRowStore {
                storages: &mut self.storages,
                regions: &self.regions,
                cost: &self.config.cost,
                link: &self.config.link,
                receipt: &mut receipt,
                now,
                region_count: self.config.regions.max(1) as usize,
            };
            execute(&self.catalog, &physical, params, &mut store)?
        };
        Ok(DelayedWrite {
            batch: outcome.write.unwrap_or_default(),
            receipt,
        })
    }

    /// Commit a previously prepared delayed write.
    pub fn commit_delayed(
        &mut self,
        mut delayed: DelayedWrite,
        now: SimTime,
    ) -> StoreResult<QueryReceipt> {
        let version = {
            let DelayedWrite { batch, receipt } = &mut delayed;
            self.commit_batch(batch, now, receipt)?
        };
        delayed.receipt.write_version = Some(version);
        Ok(delayed.receipt)
    }

    /// Aggregate front-end CPU across pods.
    pub fn frontend_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for f in &self.frontends {
            m.merge(&f.cpu);
        }
        m
    }

    /// Aggregate storage CPU across pods.
    pub fn storage_cpu_total(&self) -> CpuMeter {
        let mut m = CpuMeter::new();
        for s in &self.storages {
            m.merge(&s.cpu);
        }
        m
    }

    /// Mean block-cache hit ratio over pods (0 when unused).
    pub fn block_cache_hit_ratio(&self) -> f64 {
        let n = self.storages.len().max(1) as f64;
        self.storages
            .iter()
            .map(|s| s.block_cache.hit_ratio())
            .sum::<f64>()
            / n
    }

    /// Summed raw block-cache `(hits, misses)` across pods — the mergeable
    /// counterpart of [`SqlCluster::block_cache_hit_ratio`] used when a
    /// sharded experiment folds per-shard clusters into one report.
    pub fn block_cache_counts(&self) -> (u64, u64) {
        self.storages.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.block_cache.counts();
            (h + sh, m + sm)
        })
    }
}

/// Mirror one raft entry, just applied to `storage`'s engine, into the pod's
/// durable store: WAL append (+ group-commit fsync when due, + snapshot when
/// the cadence fires). Charges the pod's meter and returns the total CPU so
/// write paths can also bill it to the statement's receipt. No-op (and
/// zero) with durability off. A free function so callers can lend the entry
/// straight out of the raft log while the pods are borrowed mutably.
fn durable_apply(
    config: &ClusterConfig,
    storage: &mut StoragePod,
    durable: &mut DurableStore,
    region: usize,
    entry: &LogEntry,
) -> SimDuration {
    if !config.durability.enabled() {
        return SimDuration::ZERO;
    }
    let keys = entry.batch.mutations.iter().map(|m| m.key.as_slice());
    let wal_cpu = durable.on_apply_keys(region, entry.version, keys, entry.bytes, &config.cost);
    storage.cpu.charge(CpuCategory::Replication, wal_cpu);
    let mut total = wal_cpu;
    if let Some(snap_cpu) = durable.maybe_snapshot(&storage.kv, &config.cost) {
        storage.cpu.charge(CpuCategory::KvExec, snap_cpu);
        total += snap_cpu;
    }
    total
}

thread_local! {
    // Scratch buffer for `point_get`'s record key — `ClusterRowStore` is
    // rebuilt per query, so per-instance scratch would still allocate per
    // request.
    static POINT_GET_KEY: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// The executor's window into the storage tier: every fetch routes to the
/// region leader, pays RPC + block-cache + KV costs on the right pods, and
/// accumulates into the receipt.
struct ClusterRowStore<'a> {
    storages: &'a mut Vec<StoragePod>,
    regions: &'a Vec<RaftGroup>,
    cost: &'a StorageCostConfig,
    link: &'a LinkSpec,
    receipt: &'a mut QueryReceipt,
    #[allow(dead_code)]
    now: SimTime,
    region_count: usize,
}

impl ClusterRowStore<'_> {
    fn region_of(&self, key_hash: u64) -> usize {
        (key_hash % self.region_count as u64) as usize
    }

    /// Charge a storage-side row read (block cache + KV) on `pod`, for the
    /// row whose key has [`stable_hash`] `key_hash`.
    fn charge_row_read(&mut self, pod: usize, key_hash: u64, bytes: u64, rows_scanned: u64) {
        let (hits, misses) = self.storages[pod]
            .block_cache
            .access_hashed(key_hash, bytes.max(1));
        self.receipt.block_hits += hits;
        self.receipt.block_misses += misses;
        let kv = self.cost.kv_read_cost(bytes, rows_scanned);
        let miss_cpu = SimDuration::from_micros_f64(self.cost.block_miss_us * misses as f64);
        self.storages[pod].cpu.charge(CpuCategory::KvExec, kv);
        self.storages[pod].cpu.charge(CpuCategory::KvExec, miss_cpu);
        self.receipt.storage_cpu += kv + miss_cpu;
        self.receipt.latency += kv
            + miss_cpu
            + SimDuration::from_micros_f64(self.cost.disk_read_latency_us * misses as f64);
    }

    /// Charge the front-end↔storage round trip for a fetch.
    fn charge_fetch_rpc(&mut self, pod: usize, resp_bytes: u64) {
        let req = 48u64; // encoded key + header
        let fe_cost = self.cost.rpc_side_cost(req) + self.cost.rpc_side_cost(resp_bytes);
        self.storages[pod]
            .cpu
            .charge(CpuCategory::RpcStack, fe_cost);
        self.receipt.storage_cpu += fe_cost;
        // Front-end side is charged by the cluster wrapper on the same
        // receipt (the receipt's frontend_cpu), via this addition:
        self.receipt.frontend_cpu += fe_cost;
        self.receipt.storage_rpcs += 1;
        self.receipt.latency +=
            self.link.delivery_time(req) + self.link.delivery_time(resp_bytes) + fe_cost * 2;
    }

    /// The leader pod of the region holding the key with `key_hash`.
    fn leader_for(&self, key_hash: u64) -> StoreResult<usize> {
        self.regions[self.region_of(key_hash)].leader()
    }

    /// Point-fetch one record key from its home region, with charges: a
    /// miss still pays the lookup and the round trip.
    fn fetch_row(&mut self, key: &[u8]) -> StoreResult<Option<(Row, u64)>> {
        let hash = stable_hash(key);
        let pod = self.leader_for(hash)?;
        let found = self.storages[pod]
            .kv
            .get_latest(key)
            .map(|v| Row::decode(v.value).map(|row| (row, v.version)))
            .transpose()?;
        let logical = found.as_ref().map_or(0, |(row, _)| row.encoded_size());
        self.charge_row_read(pod, hash, logical, 1);
        self.charge_fetch_rpc(pod, logical);
        Ok(found)
    }

    /// Point-fetch each record key from its home region, with charges.
    /// Keys whose row is gone are skipped and charge nothing.
    fn fetch_rows_by_record_keys(
        &mut self,
        record_keys: Vec<Vec<u8>>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let mut rows = Vec::new();
        for key in record_keys {
            let hash = stable_hash(&key);
            let pod = self.leader_for(hash)?;
            let found = self.storages[pod]
                .kv
                .get_latest(&key)
                .map(|v| Row::decode(v.value).map(|row| (row, v.version)))
                .transpose()?;
            if let Some((row, version)) = found {
                let logical = row.encoded_size();
                self.charge_row_read(pod, hash, logical, 1);
                self.charge_fetch_rpc(pod, logical);
                rows.push((row, version));
            }
        }
        Ok(rows)
    }

    /// Rows of record keys in `[start, end)` across every region: each
    /// region leader scans its slice, and each row read is charged.
    fn scan_records(&mut self, start: &[u8], end: Option<&[u8]>) -> StoreResult<Vec<(Row, u64)>> {
        let mut rows = Vec::new();
        for region_idx in 0..self.region_count {
            let pod = self.regions[region_idx].leader()?;
            let hits: Vec<(u64, Vec<u8>, u64)> = self.storages[pod]
                .kv
                .scan_between(start, end, u64::MAX)
                .map(|(k, v)| (stable_hash(k), v))
                .filter(|(hash, _)| self.region_of(*hash) == region_idx)
                .map(|(hash, v)| (hash, v.value.to_vec(), v.version))
                .collect();
            let mut region_bytes = 0u64;
            for (hash, bytes, version) in hits {
                let row = Row::decode(&bytes)?;
                let logical = row.encoded_size();
                region_bytes += logical;
                self.charge_row_read(pod, hash, logical, 1);
                rows.push((row, version));
            }
            self.charge_fetch_rpc(pod, region_bytes);
        }
        Ok(rows)
    }
}

impl RowStore for ClusterRowStore<'_> {
    fn point_get(&mut self, table: &str, pk: &Datum) -> StoreResult<Option<(Row, u64)>> {
        let _span = simnet::prof_span!("point_get");
        // Reuse one thread-local key buffer and decode straight out of the
        // MVCC store's borrowed bytes: the hottest read in the simulator
        // allocates nothing beyond the decoded datums themselves.
        POINT_GET_KEY.with(|buf| {
            let mut key = buf.borrow_mut();
            record_key_into(&mut key, table, pk);
            self.fetch_row(&key)
        })
    }

    fn index_lookup(
        &mut self,
        table: &str,
        column: usize,
        value: &Datum,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let prefix = index_prefix(table, column, value);
        let hash = stable_hash(&prefix);
        let pod = self.leader_for(hash)?;
        let record_keys: Vec<Vec<u8>> = self.storages[pod]
            .kv
            .scan_prefix(&prefix, u64::MAX)
            .map(|(_, v)| v.value.to_vec())
            .collect();
        // Index scan: one block access over the index range, rows = entries.
        self.charge_row_read(
            pod,
            hash,
            32 * record_keys.len() as u64,
            record_keys.len().max(1) as u64,
        );
        self.charge_fetch_rpc(pod, 40 * record_keys.len() as u64);
        self.fetch_rows_by_record_keys(record_keys)
    }

    fn index_range(
        &mut self,
        table: &str,
        column: usize,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        // Index entries for a value range are spread across regions (they
        // hash by full key), so every region leader scans its slice — the
        // multi-region coprocessor pattern of the real system.
        let (start, end) = crate::kv::index_range_bounds(table, column, lo, hi);
        let start_hash = stable_hash(&start);
        let mut record_keys = Vec::new();
        for region_idx in 0..self.region_count {
            let pod = self.regions[region_idx].leader()?;
            let hits: Vec<Vec<u8>> = self.storages[pod]
                .kv
                .scan_between(&start, end.as_deref(), u64::MAX)
                .filter(|(k, _)| self.region_of(stable_hash(k)) == region_idx)
                .map(|(_, v)| v.value.to_vec())
                .collect();
            self.charge_row_read(
                pod,
                start_hash,
                32 * hits.len() as u64,
                hits.len().max(1) as u64,
            );
            self.charge_fetch_rpc(pod, 40 * hits.len() as u64);
            record_keys.extend(hits);
        }
        record_keys.sort();
        record_keys.dedup();
        self.fetch_rows_by_record_keys(record_keys)
    }

    fn pk_range(
        &mut self,
        table: &str,
        lo: Option<&Datum>,
        hi: Option<&Datum>,
    ) -> StoreResult<Vec<(Row, u64)>> {
        let (start, end) = crate::kv::record_range_bounds(table, lo, hi);
        self.scan_records(&start, end.as_deref())
    }

    fn full_scan(&mut self, table: &str) -> StoreResult<Vec<(Row, u64)>> {
        // Every record key of the table: the same bounds as `scan_prefix`
        // over `record_prefix(table)`.
        let (start, end) = crate::kv::record_range_bounds(table, None, None);
        self.scan_records(&start, end.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::record_key;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            TableSchema::new(
                "kv",
                vec![
                    ColumnDef::new("k", ColumnType::Int),
                    ColumnDef::new("v", ColumnType::Bytes),
                ],
                "k",
                &[],
            )
            .unwrap(),
        );
        c
    }

    fn cluster() -> SqlCluster {
        SqlCluster::new(catalog(), ClusterConfig::default())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut c = cluster();
        let w = c
            .execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[1.into(), Datum::Bytes(vec![7; 100])],
                t(0),
            )
            .unwrap();
        assert!(w.write_version.is_some());
        let r = c
            .execute("SELECT v FROM kv WHERE k = ?", &[1.into()], t(1))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), Some(&Datum::Bytes(vec![7; 100])));
        assert!(r.frontend_cpu > SimDuration::ZERO);
        assert!(r.storage_cpu > SimDuration::ZERO);
        assert!(r.latency > SimDuration::ZERO);
        assert_eq!(r.storage_rpcs, 1);
    }

    #[test]
    fn writes_replicate_to_all_members() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (?, ?)",
            &[5.into(), Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        // RF=3 over 3 pods: every pod holds the row.
        let key = record_key("kv", &Datum::Int(5));
        for (i, pod) in c.storages.iter().enumerate() {
            assert!(pod.kv.get_latest(&key).is_some(), "pod {i} missing replica");
        }
    }

    #[test]
    fn versions_advance_with_updates() {
        let mut c = cluster();
        let w1 = c
            .execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[1.into(), Datum::Bytes(vec![1])],
                t(0),
            )
            .unwrap();
        let w2 = c
            .execute(
                "UPDATE kv SET v = ? WHERE k = ?",
                &[Datum::Bytes(vec![2]).clone(), 1.into()],
                t(1),
            )
            .unwrap();
        assert!(w2.write_version.unwrap() > w1.write_version.unwrap());
        let (ver, _) = c.version_check("kv", &Datum::Int(1), t(2)).unwrap();
        assert_eq!(ver, Some(w2.write_version.unwrap()));
    }

    #[test]
    fn version_check_pays_full_read_path() {
        let mut c = cluster();
        let big = Datum::Payload {
            len: 100_000,
            seed: 1,
        };
        c.execute("INSERT INTO kv VALUES (?, ?)", &[1.into(), big], t(0))
            .unwrap();
        let (_, receipt) = c.version_check("kv", &Datum::Int(1), t(1)).unwrap();
        // The row ships to the front-end in full: storage RPC cost reflects
        // ~100 KB even though only 8 bytes return to the app.
        assert!(receipt.storage_rpcs >= 1);
        assert!(
            receipt.storage_cpu > SimDuration::from_micros(20),
            "storage CPU {} too small for full-row fetch",
            receipt.storage_cpu
        );
        assert!(receipt.response_bytes < 100, "app only gets the version");
    }

    #[test]
    fn block_cache_evicts_and_rewarns() {
        // One-block cache per pod: alternating keys thrash it.
        let cfg = ClusterConfig {
            block_cache_bytes: 33_000, // fits exactly one 32 KiB block
            storage_nodes: 1,          // single pod so both keys share the cache
            replicas: 1,
            ..ClusterConfig::default()
        };
        let mut c = SqlCluster::new(catalog(), cfg);
        c.execute(
            "INSERT INTO kv VALUES (1, ?)",
            &[Datum::Bytes(vec![0; 100])],
            t(0),
        )
        .unwrap();
        c.execute(
            "INSERT INTO kv VALUES (2, ?)",
            &[Datum::Bytes(vec![0; 100])],
            t(0),
        )
        .unwrap();
        // k=1's block was just warmed by the insert's dup-check, but k=2's
        // insert displaced it (single block slot, and the two keys hash to
        // different blocks with overwhelming probability).
        let r1 = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(1))
            .unwrap();
        assert!(r1.block_misses > 0, "evicted block must miss");
        let r1b = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(2))
            .unwrap();
        assert_eq!(r1b.block_misses, 0, "immediately-warm read hits");
        assert!(r1b.block_hits > 0);
        assert!(
            r1b.latency < r1.latency,
            "disk latency disappears when warm"
        );
        // Touching k=2 evicts k=1 again.
        c.execute("SELECT v FROM kv WHERE k = 2", &[], t(3))
            .unwrap();
        let r1c = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(4))
            .unwrap();
        assert!(r1c.block_misses > 0);
    }

    #[test]
    fn negative_lookup_still_charges() {
        let mut c = cluster();
        let r = c
            .execute("SELECT v FROM kv WHERE k = 404", &[], t(0))
            .unwrap();
        assert!(r.rows.is_empty());
        assert!(r.storage_cpu > SimDuration::ZERO);
    }

    #[test]
    fn prepared_execution_skips_parse_cost() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (1, ?)",
            &[Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        let plan = c.prepare("SELECT v FROM kv WHERE k = ?").unwrap();
        let full = c
            .execute("SELECT v FROM kv WHERE k = ?", &[1.into()], t(1))
            .unwrap();
        let prep = c.execute_prepared(&plan, &[1.into()], t(2)).unwrap();
        assert!(prep.frontend_cpu < full.frontend_cpu);
        assert_eq!(prep.rows, full.rows);
    }

    #[test]
    fn delayed_write_is_invisible_until_commit() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (1, ?)",
            &[Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        let dw = c
            .begin_delayed_write(
                "UPDATE kv SET v = ? WHERE k = 1",
                &[Datum::Bytes(vec![9])],
                t(1),
            )
            .unwrap();
        let before = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(2))
            .unwrap();
        assert_eq!(before.rows[0].get(0), Some(&Datum::Bytes(vec![1])));
        let receipt = c.commit_delayed(dw, t(3)).unwrap();
        assert!(receipt.write_version.is_some());
        let after = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(4))
            .unwrap();
        assert_eq!(after.rows[0].get(0), Some(&Datum::Bytes(vec![9])));
    }

    #[test]
    fn leader_crash_fails_reads_until_election() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (1, ?)",
            &[Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        let key = record_key("kv", &Datum::Int(1));
        let region = c.region_of(&key);
        // Crash the leader replica of that region.
        let leader_slot = c.regions[region].leader_slot().unwrap();
        c.region_mut(region).crash(leader_slot);
        let err = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(1))
            .unwrap_err();
        assert!(matches!(err, StoreError::NoLeader { .. }));
        c.region_mut(region).elect(t(2)).unwrap();
        let r = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(3))
            .unwrap();
        assert_eq!(r.rows.len(), 1, "data survives leader failover");
    }

    #[test]
    fn bulk_load_rows_are_readable_and_replicated() {
        let mut c = cluster();
        let n = c
            .bulk_load(
                "kv",
                (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
            )
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(
            c.storage_cpu_total().total(),
            SimDuration::ZERO,
            "no CPU charged"
        );
        for i in 0..50i64 {
            let r = c
                .execute("SELECT v FROM kv WHERE k = ?", &[i.into()], t(1))
                .unwrap();
            assert_eq!(r.rows[0].get(0), Some(&Datum::Bytes(vec![i as u8])));
        }
        // Subsequent SQL writes see later versions than bulk-loaded rows.
        let w = c
            .execute(
                "UPDATE kv SET v = ? WHERE k = 0",
                &[Datum::Bytes(vec![99])],
                t(2),
            )
            .unwrap();
        let (ver, _) = c.version_check("kv", &Datum::Int(0), t(3)).unwrap();
        assert_eq!(ver, w.write_version);
    }

    #[test]
    fn bulk_load_validates_rows() {
        let mut c = cluster();
        let err = c.bulk_load("kv", vec![vec![Datum::Int(1)]]).unwrap_err();
        assert!(matches!(err, StoreError::ArityMismatch { .. }));
        assert!(c.bulk_load("ghost", vec![]).is_err());
    }

    #[test]
    fn range_queries_span_regions() {
        let mut c = cluster();
        c.bulk_load(
            "kv",
            (0..200i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
        )
        .unwrap();
        let r = c
            .execute(
                "SELECT COUNT(*) FROM kv WHERE k >= 50 AND k < 150",
                &[],
                t(1),
            )
            .unwrap();
        assert_eq!(r.rows[0].get(0), Some(&Datum::Int(100)));
        assert!(r.stats.used_index, "pk range scan, not full scan");
        assert_eq!(r.stats.full_scans, 0);
        assert!(r.storage_rpcs >= 1);
    }

    #[test]
    fn cpu_meters_accumulate_by_tier() {
        let mut c = cluster();
        for i in 0..20i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        for i in 0..20i64 {
            c.execute(
                "SELECT v FROM kv WHERE k = ?",
                &[i.into()],
                t(100 + i as u64),
            )
            .unwrap();
        }
        let fe = c.frontend_cpu_total();
        let st = c.storage_cpu_total();
        assert!(fe.category(CpuCategory::SqlFrontend) > SimDuration::ZERO);
        assert!(fe.category(CpuCategory::TxnLease) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::KvExec) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::Replication) > SimDuration::ZERO);
        assert!(st.category(CpuCategory::RpcStack) > SimDuration::ZERO);
    }

    #[test]
    fn durability_off_keeps_every_counter_at_zero() {
        let mut c = cluster();
        for i in 0..20i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        c.tick(t(100));
        assert!(!c.durability_enabled());
        assert_eq!(c.durability_stats(), Default::default());
        assert_eq!(c.ssd_resident_bytes(), 0);
    }

    fn durable_cluster(fsync: crate::durability::FsyncPolicy, snap: u64) -> SqlCluster {
        let cfg = ClusterConfig {
            durability: DurabilityConfig {
                enabled: true,
                fsync,
                snapshot_every_entries: snap,
            },
            ..ClusterConfig::default()
        };
        SqlCluster::new(catalog(), cfg)
    }

    #[test]
    fn durable_writes_append_wal_and_snapshot_on_cadence() {
        use crate::durability::FsyncPolicy;
        let mut c = durable_cluster(FsyncPolicy::Group(4), 10);
        for i in 0..12i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![0; 64])],
                t(i as u64),
            )
            .unwrap();
        }
        let s = c.durability_stats();
        // RF=3: every insert is WAL'd on all three replicas.
        assert_eq!(s.wal_appends, 36);
        assert!(s.fsync_batches > 0);
        assert!(s.snapshots > 0, "cadence of 10 fires within 12 appends");
        assert!(c.ssd_resident_bytes() > 0);
        // Durable IO is billed to the replication/kv categories.
        assert!(c.storage_cpu_total().category(CpuCategory::Replication) > SimDuration::ZERO);
    }

    #[test]
    fn crashed_pod_recovers_committed_state_via_quorum() {
        use crate::durability::FsyncPolicy;
        // Group(64): most of the WAL tail is un-fsynced at crash time, so
        // recovery genuinely leans on quorum re-replication.
        let mut c = durable_cluster(FsyncPolicy::Group(64), 1_000_000);
        for i in 0..30i64 {
            c.execute(
                "INSERT INTO kv VALUES (?, ?)",
                &[i.into(), Datum::Bytes(vec![i as u8; 32])],
                t(i as u64),
            )
            .unwrap();
        }
        c.crash_pod(0);
        let dt = c.recover_pod(0, t(100));
        assert!(dt > SimDuration::ZERO);
        let s = c.durability_stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.lost_tail_entries > 0, "un-fsynced tail was discarded");
        assert!(s.cold_refill_cpu_us > 0, "block cache residency was lost");
        // Every acked write survives the crash.
        for i in 0..30i64 {
            let r = c
                .execute("SELECT v FROM kv WHERE k = ?", &[i.into()], t(200))
                .unwrap();
            assert_eq!(
                r.rows[0].get(0),
                Some(&Datum::Bytes(vec![i as u8; 32])),
                "key {i}"
            );
        }
        // And the recovered pod itself holds them again (not just the quorum).
        let key = record_key("kv", &Datum::Int(29));
        assert!(c.storages[0].kv.get_latest(&key).is_some());
    }

    #[test]
    fn bulk_load_snapshots_when_durable() {
        use crate::durability::FsyncPolicy;
        let mut c = durable_cluster(FsyncPolicy::Group(8), 1_000_000);
        c.bulk_load(
            "kv",
            (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
        )
        .unwrap();
        assert_eq!(c.durability_stats().snapshots, 3, "one per pod");
        assert_eq!(
            c.storage_cpu_total().total(),
            SimDuration::ZERO,
            "load stays free"
        );
        // Crash+recover straight off the snapshot: no quorum help needed.
        c.crash_pod(1);
        c.recover_pod(1, t(1));
        let key = record_key("kv", &Datum::Int(42));
        assert!(c.storages[1].kv.get_latest(&key).is_some());
    }

    #[test]
    fn double_crash_before_recovery_keeps_the_first_image() {
        use crate::durability::FsyncPolicy;
        let run = |crashes: usize| {
            let mut c = durable_cluster(FsyncPolicy::Group(64), 1_000_000);
            c.bulk_load(
                "kv",
                (0..50i64).map(|i| vec![Datum::Int(i), Datum::Bytes(vec![i as u8])]),
            )
            .unwrap();
            for i in 50..60i64 {
                c.execute(
                    "INSERT INTO kv VALUES (?, ?)",
                    &[i.into(), Datum::Bytes(vec![1])],
                    t(1),
                )
                .unwrap();
            }
            for _ in 0..crashes {
                c.crash_pod(0);
            }
            c.recover_pod(0, t(2));
            c
        };
        let once = run(1);
        let twice = run(2);
        assert!(once.durability_stats().lost_tail_entries > 0);
        assert_eq!(twice.durability_stats(), once.durability_stats());
        assert_eq!(twice.storages[0].kv, once.storages[0].kv);
        let key = record_key("kv", &Datum::Int(42));
        assert!(twice.storages[0].kv.get_latest(&key).is_some());
    }

    #[test]
    fn reset_metrics_clears_cpu_but_not_data() {
        let mut c = cluster();
        c.execute(
            "INSERT INTO kv VALUES (1, ?)",
            &[Datum::Bytes(vec![1])],
            t(0),
        )
        .unwrap();
        c.reset_metrics();
        assert_eq!(c.storage_cpu_total().total(), SimDuration::ZERO);
        let r = c
            .execute("SELECT v FROM kv WHERE k = 1", &[], t(1))
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
