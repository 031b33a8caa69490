//! The shard residency store: spill-to-disk, LRU reload, byte accounting.
//!
//! Shards are **immutable** after [`PartitionedGraph`](crate::PartitionedGraph)
//! builds them, so the store is a read-only cache: spilling writes each shard's
//! file exactly once, eviction is a pure drop, and a reload parses the file
//! back.  All bookkeeping sits behind one mutex.  The sharded miner evaluates
//! each level shard-major — it fetches a shard once, enumerates every
//! candidate of the level on it into flat per-candidate buffers, then moves on
//! — so a level costs at most K fetches, each one an uncontended lock, and the
//! file I/O itself is the cost that matters; a finer-grained scheme would buy
//! nothing.  A panic while the lock is held poisons the store: later fetches
//! and spills report [`FfsmError::Partition`] instead of panicking in turn.
//!
//! ### Shard file format (plain text, one shard per file)
//!
//! ```text
//! s <num_vertices> <num_edges>
//! v <label> <global_id>     # one per vertex, local ids implicit 0,1,2,…
//! e <u> <v>                 # one per edge, local ids, u < v
//! ```

use crate::partition::ResidentShard;
use ffsm_core::FfsmError;
use ffsm_graph::{Label, LabeledGraph, VertexId};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One scrape of the store's residency and load counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStoreStats {
    /// Shards reloaded from disk (cold fetches after eviction).
    pub loads: u64,
    /// Shards dropped to stay within `max_resident`.
    pub evictions: u64,
    /// Shards currently in memory.
    pub resident_shards: usize,
    /// Approximate bytes currently resident ([`ResidentShard::approx_bytes`]).
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` since the store was created or
    /// last spilled — the peak-RSS proxy the shard bench gates on.
    /// [`ShardStore::spill`] resets it to the post-eviction residency, so
    /// under a spilled configuration the value describes the out-of-core
    /// mining phase, not the all-resident build that necessarily preceded it.
    pub peak_resident_bytes: u64,
    /// Wall time spent parsing shard files, total.
    pub load_nanos: u64,
    /// `true` once [`ShardStore::spill`] has run.
    pub spilled: bool,
}

struct StoreState {
    slots: Vec<Option<Arc<ResidentShard>>>,
    /// Resident shard ids, least-recently-used at the front.
    lru: VecDeque<usize>,
    dir: Option<PathBuf>,
    max_resident: usize,
    resident_bytes: u64,
}

/// The residency manager behind [`PartitionedGraph`](crate::PartitionedGraph).
#[derive(Debug)]
pub struct ShardStore {
    state: Mutex<StoreState>,
    loads: AtomicU64,
    evictions: AtomicU64,
    peak_resident_bytes: AtomicU64,
    load_nanos: AtomicU64,
}

impl std::fmt::Debug for StoreState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreState")
            .field("resident", &self.lru)
            .field("max_resident", &self.max_resident)
            .field("resident_bytes", &self.resident_bytes)
            .finish()
    }
}

impl ShardStore {
    /// A store with every shard resident and no spill configured.
    pub(crate) fn resident(shards: Vec<ResidentShard>) -> Self {
        let k = shards.len();
        let mut bytes = 0u64;
        let slots: Vec<Option<Arc<ResidentShard>>> = shards
            .into_iter()
            .map(|s| {
                bytes += s.approx_bytes();
                Some(Arc::new(s))
            })
            .collect();
        ShardStore {
            state: Mutex::new(StoreState {
                slots,
                lru: (0..k).collect(),
                dir: None,
                max_resident: k.max(1),
                resident_bytes: bytes,
            }),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident_bytes: AtomicU64::new(bytes),
            load_nanos: AtomicU64::new(0),
        }
    }

    /// The bookkeeping lock, or a typed error when a panicking thread poisoned
    /// it mid-update (the LRU order or byte tally may then be inconsistent).
    fn lock(&self) -> Result<MutexGuard<'_, StoreState>, FfsmError> {
        self.state.lock().map_err(|_| {
            FfsmError::Partition("shard store lock poisoned by a panicking thread".into())
        })
    }

    /// Fetch shard `i`, reloading from its spill file when evicted.  Marks `i`
    /// most-recently-used and evicts down to `max_resident`.
    pub fn fetch(&self, i: usize) -> Result<Arc<ResidentShard>, FfsmError> {
        let mut st = self.lock()?;
        if i >= st.slots.len() {
            return Err(FfsmError::Partition(format!(
                "shard index {i} out of range (have {} shards)",
                st.slots.len()
            )));
        }
        if let Some(arc) = &st.slots[i] {
            let arc = arc.clone();
            if let Some(pos) = st.lru.iter().position(|&x| x == i) {
                st.lru.remove(pos);
            }
            st.lru.push_back(i);
            return Ok(arc);
        }
        let dir = st.dir.clone().ok_or_else(|| {
            FfsmError::Partition(format!(
                "shard {i} is not resident and no spill directory is configured"
            ))
        })?;
        // Make room *before* the read: the victim is dropped before the
        // incoming shard's bytes land, so residency never exceeds the cap —
        // the peak under a spilled configuration is genuinely `max_resident`
        // shards, not cap-plus-one during each exchange.
        while st.lru.len() + 1 > st.max_resident {
            let victim = st.lru.pop_front().expect("len >= cap >= 1");
            if let Some(shard) = st.slots[victim].take() {
                st.resident_bytes = st.resident_bytes.saturating_sub(shard.approx_bytes());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let start = Instant::now();
        let shard = read_shard_file(&shard_path(&dir, i))?;
        self.load_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        let bytes = shard.approx_bytes();
        let arc = Arc::new(shard);
        st.slots[i] = Some(arc.clone());
        st.lru.push_back(i);
        st.resident_bytes += bytes;
        self.peak_resident_bytes.fetch_max(st.resident_bytes, Ordering::Relaxed);
        Ok(arc)
    }

    /// Write every shard to `dir` (created if missing) and cap residency at
    /// `max_resident`, evicting least-recently-used shards immediately.
    pub fn spill(&self, dir: &Path, max_resident: usize) -> Result<(), FfsmError> {
        if max_resident == 0 {
            return Err(FfsmError::Partition("max-resident must be at least 1 (got 0)".into()));
        }
        let mut st = self.lock()?;
        if st.dir.is_some() {
            return Err(FfsmError::Partition("shards are already spilled to disk".into()));
        }
        std::fs::create_dir_all(dir).map_err(|e| {
            FfsmError::Partition(format!("cannot create spill directory {}: {e}", dir.display()))
        })?;
        for (i, slot) in st.slots.iter().enumerate() {
            let shard = slot.as_ref().expect("all shards resident before first spill");
            write_shard_file(&shard_path(dir, i), shard)?;
        }
        st.dir = Some(dir.to_path_buf());
        st.max_resident = max_resident;
        self.evict_to_cap(&mut st);
        // The out-of-core regime starts here: restart the high-water mark at
        // the capped residency so the reported peak describes mining under the
        // cap, not the all-resident state every build passes through.
        self.peak_resident_bytes.store(st.resident_bytes, Ordering::Relaxed);
        Ok(())
    }

    /// Current counters — still readable after a poisoning panic, since they
    /// only describe the store.
    pub fn stats(&self) -> ShardStoreStats {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        ShardStoreStats {
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_shards: st.lru.len(),
            resident_bytes: st.resident_bytes,
            peak_resident_bytes: self.peak_resident_bytes.load(Ordering::Relaxed),
            load_nanos: self.load_nanos.load(Ordering::Relaxed),
            spilled: st.dir.is_some(),
        }
    }

    /// Drop least-recently-used shards until within cap.
    fn evict_to_cap(&self, st: &mut StoreState) {
        while st.lru.len() > st.max_resident {
            let victim = st.lru.pop_front().expect("len > cap >= 1");
            if let Some(shard) = st.slots[victim].take() {
                st.resident_bytes = st.resident_bytes.saturating_sub(shard.approx_bytes());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn shard_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard_{i}.ffs"))
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> FfsmError {
    FfsmError::Partition(format!("shard file {}: {e}", path.display()))
}

fn write_shard_file(path: &Path, shard: &ResidentShard) -> Result<(), FfsmError> {
    let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    let mut w = BufWriter::new(file);
    let g = shard.graph();
    (|| -> std::io::Result<()> {
        writeln!(w, "s {} {}", g.num_vertices(), g.num_edges())?;
        for v in g.vertices() {
            writeln!(w, "v {} {}", g.label(v).0, shard.to_global()[v as usize])?;
        }
        for v in g.vertices() {
            for &u in g.neighbors(v) {
                if v < u {
                    writeln!(w, "e {v} {u}")?;
                }
            }
        }
        w.flush()
    })()
    .map_err(|e| io_err(path, e))
}

fn read_shard_file(path: &Path) -> Result<ResidentShard, FfsmError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let reader = BufReader::new(file);
    let mut graph = LabeledGraph::new();
    let mut to_global: Vec<VertexId> = Vec::new();
    let mut declared: Option<(usize, usize)> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| io_err(path, e))?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let bad = |msg: &str| io_err(path, format!("line {}: {msg}", lineno + 1));
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().expect("non-empty line");
        let fields: Vec<u64> = parts
            .map(|p| p.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("expected integer fields"))?;
        match (tag, fields.as_slice()) {
            ("s", [n, m]) => {
                if declared.is_some() {
                    return Err(bad("duplicate header"));
                }
                declared = Some((*n as usize, *m as usize));
                graph = LabeledGraph::with_capacity(*n as usize);
                to_global.reserve(*n as usize);
            }
            ("v", [label, global]) => {
                graph.add_vertex(Label(*label as u32));
                to_global.push(*global as VertexId);
            }
            ("e", [u, v]) => {
                graph.add_edge(*u as VertexId, *v as VertexId).map_err(|e| bad(&e.to_string()))?;
            }
            _ => return Err(bad("unrecognised record")),
        }
    }
    let (n, m) = declared.ok_or_else(|| io_err(path, "missing `s` header"))?;
    if graph.num_vertices() != n || graph.num_edges() != m {
        return Err(io_err(
            path,
            format!(
                "header declares {n} vertices / {m} edges, file has {} / {}",
                graph.num_vertices(),
                graph.num_edges()
            ),
        ));
    }
    Ok(ResidentShard::new(graph, to_global))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionSpec, PartitionedGraph};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ffsm-shard-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ring(n: usize) -> LabeledGraph {
        let labels: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
        let edges: Vec<(VertexId, VertexId)> =
            (0..n).map(|i| (i as VertexId, ((i + 1) % n) as VertexId)).collect();
        LabeledGraph::from_edges(&labels, &edges)
    }

    #[test]
    fn spill_evict_reload_round_trips() {
        let g = ring(24);
        let p = PartitionedGraph::build(&g, PartitionSpec::vertex_range(4, 2)).unwrap();
        let before: Vec<(LabeledGraph, Vec<VertexId>)> = (0..4)
            .map(|i| {
                let s = p.shard(i).unwrap();
                (s.graph().clone(), s.to_global().to_vec())
            })
            .collect();
        let whole = p.store_stats().resident_bytes;

        let dir = temp_dir("roundtrip");
        p.spill_to_disk(&dir, 1).unwrap();
        let spilled = p.store_stats();
        assert!(spilled.spilled);
        assert_eq!(spilled.resident_shards, 1);
        assert_eq!(spilled.evictions, 3);
        assert!(spilled.resident_bytes < whole);

        // Touch every shard twice in round-robin: each fetch past the first
        // resident one is a cold reload through the file format.
        for round in 0..2 {
            for (i, (graph, to_global)) in before.iter().enumerate() {
                let s = p.shard(i).unwrap();
                assert_eq!(s.graph(), graph, "round {round} shard {i}");
                assert_eq!(s.to_global(), &to_global[..]);
            }
        }
        let after = p.store_stats();
        assert!(after.loads >= 7, "expected cold reloads, saw {}", after.loads);
        assert_eq!(after.resident_shards, 1);
        // Spill restarted the high-water mark, so the post-spill peak reflects
        // capped mining (at most two shards overlap during a fetch+evict), not
        // the all-resident build.
        assert!(
            after.peak_resident_bytes < whole,
            "peak {} should drop below all-resident {whole}",
            after.peak_resident_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_max_resident_is_a_typed_error() {
        let g = ring(8);
        let p = PartitionedGraph::build(&g, PartitionSpec::vertex_range(2, 2)).unwrap();
        let dir = temp_dir("zerocap");
        let err = p.spill_to_disk(&dir, 0).unwrap_err();
        assert!(matches!(err, FfsmError::Partition(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lock_is_a_typed_error() {
        let g = ring(8);
        let store = ShardStore::resident(vec![ResidentShard::new(g, (0..8).collect())]);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = store.state.lock().unwrap();
                    panic!("worker dies holding the shard store lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(matches!(store.fetch(0), Err(FfsmError::Partition(_))));
        let dir = temp_dir("poisoned");
        assert!(matches!(store.spill(&dir, 1), Err(FfsmError::Partition(_))));
        assert_eq!(store.stats().resident_shards, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_prefers_recently_touched_shards() {
        let g = ring(30);
        let p = PartitionedGraph::build(&g, PartitionSpec::vertex_range(3, 1)).unwrap();
        let dir = temp_dir("lru");
        p.spill_to_disk(&dir, 2).unwrap();
        // Resident after spill: the two most-recently built/fetched shards.
        p.shard(0).unwrap();
        p.shard(1).unwrap();
        let loads_before = p.store_stats().loads;
        // 0 and 1 are now the resident pair; touching them again is warm.
        p.shard(0).unwrap();
        p.shard(1).unwrap();
        assert_eq!(p.store_stats().loads, loads_before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
