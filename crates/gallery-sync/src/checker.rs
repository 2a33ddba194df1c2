//! The acquisition checker: thread-local held-rank stacks, the
//! process-wide acquired-before graph, and the violation log.
//!
//! Debug and test builds check every ordered-lock acquisition against the
//! declared rank table; release builds default to a passthrough whose
//! entire cost is one relaxed atomic load per acquisition. The default
//! can be overridden at runtime ([`enable`] / [`disable`], or the
//! `GALLERY_LOCKCHECK` environment variable), which is how the release
//! CI binaries — `exp_locklint`, `gallery lockgraph` — run the analyzer
//! without carrying its cost into the benchmarked paths.
//!
//! Violations are *recorded*, never panicked: a recorded diagnostic
//! surfaces through [`report`], `Probe{"lockgraph"}`, and the
//! `gallery lockgraph` CLI, so a seeded mutant in E22 is flagged without
//! wedging the thread that tripped it.

use crate::diag::{codes, Diagnostic};
use crate::rank::{self, Rank};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Checking mode
// ---------------------------------------------------------------------------

/// 1 = on, 2 = off, 0 = the build default, not yet resolved (on under
/// `debug_assertions`, else `GALLERY_LOCKCHECK`).
static MODE: AtomicU8 = AtomicU8::new(0);

fn env_default() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("GALLERY_LOCKCHECK").is_ok_and(|v| v == "1"))
}

/// Is acquisition checking active? The fast path is this single relaxed
/// load: the first call after start-up or [`reset_mode`] resolves the
/// build default and stores it in `MODE`.
#[inline]
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => resolve_default(),
    }
}

#[cold]
fn resolve_default() -> bool {
    let on = cfg!(debug_assertions) || env_default();
    // Only from "unresolved": a concurrent `enable`/`disable` wins.
    let _ = MODE.compare_exchange(
        0,
        if on { 1 } else { 2 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    on
}

/// Force checking on regardless of build profile.
pub fn enable() {
    MODE.store(1, Ordering::Relaxed);
}

/// Force checking off (used by overhead measurements in debug builds).
pub fn disable() {
    MODE.store(2, Ordering::Relaxed);
}

/// Return to the build default.
pub fn reset_mode() {
    MODE.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Perturbation hook (the testkit schedule harness plugs in here)
// ---------------------------------------------------------------------------

type AcquireHook = std::sync::Arc<dyn Fn(&Rank) + Send + Sync>;

static HOOK_SET: AtomicBool = AtomicBool::new(false);

fn hook_slot() -> &'static Mutex<Option<AcquireHook>> {
    static HOOK: OnceLock<Mutex<Option<AcquireHook>>> = OnceLock::new();
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Install a hook called before every checked acquisition — the seam the
/// schedule-perturbation harness uses to inject yields and sleeps at
/// every lock site. Pass `None` to uninstall.
pub fn set_acquire_hook(hook: Option<AcquireHook>) {
    HOOK_SET.store(hook.is_some(), Ordering::SeqCst);
    *lock_or_recover(hook_slot()) = hook;
}

fn run_hook(rank: &Rank) {
    if HOOK_SET.load(Ordering::Relaxed) {
        let hook = lock_or_recover(hook_slot()).clone();
        if let Some(hook) = hook {
            hook(rank);
        }
    }
}

// ---------------------------------------------------------------------------
// Global graph state
// ---------------------------------------------------------------------------

/// The checker's own bookkeeping lock. This is deliberately a raw
/// `std::sync::Mutex`: the checker sits *below* the ordered wrappers and
/// never acquires anything while holding it.
fn lock_or_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Default)]
struct GraphState {
    /// Acquired-before edges by rank key, with labels kept alongside so
    /// reports stay readable after the ranks left scope.
    edges: BTreeSet<(u64, u64)>,
    labels: BTreeMap<u64, String>,
    violations: Vec<Diagnostic>,
    seen: BTreeSet<(&'static str, String)>,
}

impl GraphState {
    fn label(&mut self, r: &Rank) {
        self.labels.entry(r.key()).or_insert_with(|| r.label());
    }

    fn record(&mut self, d: Diagnostic) {
        if self.seen.insert(d.dedup_key()) {
            self.violations.push(d);
        }
    }
}

fn graph() -> &'static Mutex<GraphState> {
    static GRAPH: OnceLock<Mutex<GraphState>> = OnceLock::new();
    GRAPH.get_or_init(|| Mutex::new(GraphState::default()))
}

static WAIT_MICROS: AtomicU64 = AtomicU64::new(0);
static HELD_ACROSS_IO: AtomicU64 = AtomicU64::new(0);
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

/// Bumped by [`reset`]; threads drop their local caches when they notice
/// the epoch moved, so a reset genuinely empties the graph.
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Per-thread checker state. The held stack is the ground truth for this
/// thread; everything else is a cache over the global graph, so the
/// steady state — every edge and rank already seen — touches no shared
/// lock at all. Sorted `Vec`s beat hash sets here: the sets are small
/// (tens to hundreds of entries) and binary search costs no hashing.
struct LocalState {
    held: Vec<Rank>,
    /// Incremental fingerprint of the held *multiset*: wrapping sum of
    /// [`mix`]\(key\) over every held entry, maintained on push/pop.
    /// Addition is order-insensitive (out-of-stack-order releases keep
    /// it exact) but multiplicity-sensitive, so a re-acquire of a held
    /// rank hashes differently from its first acquisition.
    sig: u64,
    epoch: u64,
    /// Direct-mapped cache of acquisition contexts — `mix(31·sig +
    /// mix(key))`, the multiplier keeping the acquiree distinct from the
    /// held members so "A under B" and "B under A" hash differently —
    /// already fully checked this epoch. A hit proves the whole check is
    /// redundant: the same held multiset acquiring the same rank records
    /// the same edges, the same declared verdict, and (violations being
    /// deduped) the same diagnostics. A collision merely re-runs the
    /// full check. This is the hot-path cache: one hash plus one array
    /// probe per steady-state acquisition.
    seen: [u64; SEEN_SLOTS],
    /// `(outer, inner)` rank-key pairs this thread already pushed to the
    /// global graph (current epoch). Consulted only on context misses.
    edges: Vec<(u64, u64)>,
    /// Rank keys this thread already verified against the declared table.
    declared: Vec<u64>,
}

/// Slots in the per-thread context cache (8 KiB per thread). Power of
/// two so the slot index is a mask; the zero value marks an empty slot
/// (a context hashing to exactly 0 just never caches — harmless).
const SEEN_SLOTS: usize = 1024;

thread_local! {
    static LOCAL: RefCell<LocalState> = const {
        RefCell::new(LocalState {
            held: Vec::new(),
            sig: 0,
            epoch: 0,
            seen: [0; SEEN_SLOTS],
            edges: Vec::new(),
            declared: Vec::new(),
        })
    };
}

/// splitmix64 finalizer — cheap, well-mixed hash for the context cache.
/// `const` so the wrappers can precompute their rank's hash at
/// construction: debug builds don't inline, so recomputing this on every
/// acquisition would cost a dozen real function calls.
#[inline]
const fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The precomputed per-rank hash the wrappers pass back into
/// [`before_acquire`]/[`on_release`].
pub(crate) const fn mixed_key(rank: &Rank) -> u64 {
    mix(rank.key())
}

// ---------------------------------------------------------------------------
// Acquisition protocol (called by the ordered wrappers)
// ---------------------------------------------------------------------------

fn record_undeclared(rank: &Rank) {
    let mut g = lock_or_recover(graph());
    g.label(rank);
    g.record(
        Diagnostic::error(
            codes::UNDECLARED,
            vec![rank.label()],
            format!(
                "acquisition outside the declared rank table: `{}` (level {}, index {})",
                rank.label(),
                rank.level,
                rank.index
            ),
        )
        .with_help(
            "declare the lock's rank in gallery-sync::rank and document it in \
             docs/concurrency.md",
        ),
    );
}

fn record_inversion(worst: &Rank, rank: &Rank) {
    let mut g = lock_or_recover(graph());
    if rank.key() == worst.key() {
        g.record(
            Diagnostic::error(
                codes::INVERSION,
                vec![worst.label(), rank.label()],
                format!(
                    "rank inversion: re-acquired `{}` while already holding it",
                    rank.label()
                ),
            )
            .with_help("the ordered locks are not reentrant; release before re-acquiring"),
        );
    } else {
        g.record(
            Diagnostic::error(
                codes::INVERSION,
                vec![worst.label(), rank.label()],
                format!(
                    "rank inversion: acquired `{}` while holding `{}`",
                    rank.label(),
                    worst.label()
                ),
            )
            .with_help(format!(
                "acquire `{}` before `{}` — the declared order is outer-to-inner \
                 (docs/concurrency.md)",
                rank.label(),
                worst.label()
            )),
        );
    }
}

/// Pre-acquisition: run the perturbation hook, check the rank against the
/// held stack, record acquired-before edges, and push the rank onto the
/// held stack. Only called when checking is on (the wrappers gate on
/// [`enabled`]). The steady state — rank already verified, every
/// `held → rank` edge already recorded — runs entirely on thread-local
/// state; the global graph lock is touched only for novel edges and
/// violations.
///
/// The push happens *before* the raw acquire on purpose: the held stack
/// is thread-local, so while the thread is blocked in the acquire nobody
/// can observe the early entry — and doing all checker work up front
/// keeps the raw lock's critical section exactly as long as an unchecked
/// one, so checking never amplifies contention.
pub(crate) fn before_acquire(rank: &Rank, key_mixed: u64) {
    run_hook(rank);
    ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    let key = rank.key();
    let epoch = EPOCH.load(Ordering::Relaxed);
    // Novel work discovered under the thread-local borrow, flushed to the
    // global graph after it is released (the checker never holds both).
    let mut undeclared = false;
    let mut inversion: Option<Rank> = None;
    let mut novel: Vec<(Rank, Rank)> = Vec::new();
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        if local.epoch != epoch {
            local.seen.fill(0);
            local.edges.clear();
            local.declared.clear();
            local.epoch = epoch;
        }
        // Fast path: this exact (held multiset, rank) context has been
        // fully checked this epoch — nothing new can come of re-checking.
        let ctx = mix(local.sig.wrapping_mul(31).wrapping_add(key_mixed));
        let slot = ctx as usize & (SEEN_SLOTS - 1);
        if local.seen[slot] == ctx {
            local.held.push(*rank);
            local.sig = local.sig.wrapping_add(key_mixed);
            return;
        }
        local.seen[slot] = ctx;
        if let Err(pos) = local.declared.binary_search(&key) {
            if rank::is_declared(rank) {
                local.declared.insert(pos, key);
            } else {
                undeclared = true;
            }
        }
        if !local.held.is_empty() {
            let worst = *local
                .held
                .iter()
                .max_by_key(|h| h.key())
                .expect("non-empty");
            if key <= worst.key() {
                inversion = Some(worst);
            }
            for i in 0..local.held.len() {
                let h = local.held[i];
                if h.key() == key {
                    continue;
                }
                if let Err(pos) = local.edges.binary_search(&(h.key(), key)) {
                    local.edges.insert(pos, (h.key(), key));
                    novel.push((h, *rank));
                }
            }
        }
        local.held.push(*rank);
        local.sig = local.sig.wrapping_add(key_mixed);
    });
    if undeclared {
        record_undeclared(rank);
    }
    if let Some(worst) = inversion {
        record_inversion(&worst, rank);
    }
    if !novel.is_empty() {
        let mut g = lock_or_recover(graph());
        for (from, to) in novel {
            g.label(&from);
            g.label(&to);
            g.edges.insert((from.key(), to.key()));
        }
    }
}

/// Re-entry after a condvar wait: push the mutex rank back without the
/// full acquisition check. The check is provably redundant here — the
/// original acquisition recorded the edges for this exact held set (the
/// thread was parked, so the stack cannot have changed), and condvar
/// hygiene ([`on_condvar_wait`]) already flagged anything ranked after
/// the mutex — and skipping it matters: wakeup re-acquisition happens
/// inside the raw mutex's critical section, where a full check would
/// serialize every thread in the wakeup herd.
pub(crate) fn reattach_after_wait(rank: &Rank, key_mixed: u64) {
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        local.held.push(*rank);
        local.sig = local.sig.wrapping_add(key_mixed);
    });
}

/// Credit a blocking acquire to the `gallery_sync_lock_wait_ms` total.
/// The wrappers call this only on the contended path (`try_lock` failed),
/// so uncontended acquisitions pay no clock reads.
pub(crate) fn note_wait(waited: std::time::Duration) {
    WAIT_MICROS.fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
}

/// Release: drop the most recent matching entry (guards can release out
/// of stack order, e.g. a stripe token outliving the catalog guard).
pub(crate) fn on_release(rank: &Rank, key_mixed: u64) {
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        // Guards nearly always release in stack order; fall back to a
        // scan only for out-of-order releases (e.g. a stripe token
        // outliving the catalog guard).
        match local.held.last() {
            Some(top) if top.key() == rank.key() => {
                local.held.pop();
            }
            _ => {
                if let Some(pos) = local.held.iter().rposition(|r| r.key() == rank.key()) {
                    local.held.remove(pos);
                } else {
                    return;
                }
            }
        }
        local.sig = local.sig.wrapping_sub(key_mixed);
    });
}

/// Condvar-wait hygiene: waiting may only hold locks ranked strictly
/// before the condvar's own mutex — anything at or after it is a lock the
/// waker side may need to make progress (GL0302).
pub(crate) fn on_condvar_wait(mutex_rank: &Rank) {
    if !enabled() {
        return;
    }
    let foreign: Vec<Rank> = LOCAL.with(|l| {
        l.borrow()
            .held
            .iter()
            .filter(|r| r.key() > mutex_rank.key())
            .copied()
            .collect()
    });
    if foreign.is_empty() {
        return;
    }
    let mut g = lock_or_recover(graph());
    for f in foreign {
        g.record(
            Diagnostic::error(
                codes::WAIT_HOLDING_FOREIGN,
                vec![f.label(), mutex_rank.label()],
                format!(
                    "condvar wait on `{}` while holding `{}` — a rank the waker side may need",
                    mutex_rank.label(),
                    f.label()
                ),
            )
            .with_help(format!(
                "release `{}` before parking on the `{}` condvar",
                f.label(),
                mutex_rank.label()
            )),
        );
    }
}

/// Enter an IO section (currently: the WAL fsync). Counts sections
/// entered with locks held and flags every held rank outside the
/// declared write path (GL0301).
pub fn io_section<R>(kind: &str, body: impl FnOnce() -> R) -> R {
    if enabled() {
        let held: Vec<Rank> = LOCAL.with(|l| l.borrow().held.clone());
        if !held.is_empty() {
            HELD_ACROSS_IO.fetch_add(1, Ordering::Relaxed);
        }
        let offenders: Vec<Rank> = held
            .into_iter()
            .filter(|r| !r.allowed_across_wal_fsync())
            .collect();
        if !offenders.is_empty() {
            let mut g = lock_or_recover(graph());
            for o in offenders {
                g.record(
                    Diagnostic::error(
                        codes::HELD_ACROSS_FSYNC,
                        vec![o.label(), kind.to_string()],
                        format!("lock `{}` held across WAL fsync (`{kind}`)", o.label()),
                    )
                    .with_help(format!(
                        "release `{}` before the durability point; only the gate, ship \
                         lock, catalog, stripes, and the WAL lock may span an fsync",
                        o.label()
                    )),
                );
            }
        }
    }
    body()
}

/// The ranks the current thread holds, outermost first (test aid).
pub fn held_ranks() -> Vec<Rank> {
    LOCAL.with(|l| l.borrow().held.clone())
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// One acquired-before edge, by label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: String,
    pub to: String,
}

/// Snapshot of the analyzer's findings: recorded acquisition-time
/// violations plus cycles detected over the acquired-before graph.
#[derive(Debug, Clone)]
pub struct LockReport {
    pub diagnostics: Vec<Diagnostic>,
    pub edges: Vec<Edge>,
    pub acquisitions: u64,
    pub wait_ms: u64,
    pub held_across_io: u64,
}

impl LockReport {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Codes present, deduped and sorted.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Render every finding rustc-style plus a graph summary — the
    /// payload of `Probe{"lockgraph"}` and `gallery lockgraph`.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "# lock graph: {} acquisitions, {} edges, {} diagnostics, wait {} ms, \
             {} io sections with locks held\n",
            self.acquisitions,
            self.edges.len(),
            self.diagnostics.len(),
            self.wait_ms,
            self.held_across_io,
        );
        if self.diagnostics.is_empty() {
            out.push_str("clean: no lock-order diagnostics\n");
        }
        for d in &self.diagnostics {
            out.push('\n');
            out.push_str(&d.render("process lock graph"));
        }
        if !self.edges.is_empty() {
            out.push_str("\nacquired-before edges:\n");
            for e in &self.edges {
                out.push_str(&format!("  {} -> {}\n", e.from, e.to));
            }
        }
        out
    }

    /// Graphviz DOT rendering of the acquired-before graph, cycle edges
    /// highlighted.
    pub fn render_dot(&self) -> String {
        let mut cyclic: BTreeSet<(String, String)> = BTreeSet::new();
        for d in &self.diagnostics {
            if d.code == codes::CYCLE {
                for pair in d.locks.windows(2) {
                    cyclic.insert((pair[0].clone(), pair[1].clone()));
                }
            }
        }
        let mut out = String::from("digraph lockgraph {\n  rankdir=LR;\n");
        let mut nodes: BTreeSet<&str> = BTreeSet::new();
        for e in &self.edges {
            nodes.insert(&e.from);
            nodes.insert(&e.to);
        }
        for n in nodes {
            out.push_str(&format!("  \"{n}\";\n"));
        }
        for e in &self.edges {
            let attr = if cyclic.contains(&(e.from.clone(), e.to.clone())) {
                " [color=red, penwidth=2]"
            } else {
                ""
            };
            out.push_str(&format!("  \"{}\" -> \"{}\"{attr};\n", e.from, e.to));
        }
        out.push_str("}\n");
        out
    }
}

/// Strongly connected components of the edge set (iterative Tarjan),
/// returning only non-trivial SCCs — each one a potential deadlock.
fn cycles(edges: &BTreeSet<(u64, u64)>) -> Vec<Vec<u64>> {
    let mut adj: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut nodes: BTreeSet<u64> = BTreeSet::new();
    for (a, b) in edges {
        adj.entry(*a).or_default().push(*b);
        nodes.insert(*a);
        nodes.insert(*b);
    }
    let mut index = 0u32;
    let mut indices: BTreeMap<u64, u32> = BTreeMap::new();
    let mut low: BTreeMap<u64, u32> = BTreeMap::new();
    let mut on_stack: BTreeSet<u64> = BTreeSet::new();
    let mut stack: Vec<u64> = Vec::new();
    let mut out: Vec<Vec<u64>> = Vec::new();

    // Explicit DFS frames: (node, next child position).
    for &root in &nodes {
        if indices.contains_key(&root) {
            continue;
        }
        let mut frames: Vec<(u64, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                indices.insert(v, index);
                low.insert(v, index);
                index += 1;
                stack.push(v);
                on_stack.insert(v);
            }
            let next = adj.get(&v).and_then(|ns| ns.get(*child)).copied();
            *child += 1;
            match next {
                Some(w) if !indices.contains_key(&w) => frames.push((w, 0)),
                Some(w) => {
                    if on_stack.contains(&w) {
                        let lw = indices[&w];
                        let lv = low[&v];
                        low.insert(v, lv.min(lw));
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        let lv = low[&v];
                        let lp = low[&parent];
                        low.insert(parent, lp.min(lv));
                    }
                    if low[&v] == indices[&v] {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack.remove(&w);
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let trivial = scc.len() == 1 && !edges.contains(&(scc[0], scc[0]));
                        if !trivial {
                            scc.sort_unstable();
                            out.push(scc);
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Snapshot the analyzer state: recorded violations plus a fresh cycle
/// analysis over the acquired-before graph.
pub fn report() -> LockReport {
    let g = lock_or_recover(graph());
    let mut diagnostics = g.violations.clone();
    let mut seen = g.seen.clone();
    for scc in cycles(&g.edges) {
        let mut labels: Vec<String> = scc
            .iter()
            .map(|k| {
                g.labels
                    .get(k)
                    .cloned()
                    .unwrap_or_else(|| format!("rank#{k}"))
            })
            .collect();
        if let Some(first) = labels.first().cloned() {
            labels.push(first);
        }
        let d = Diagnostic::error(
            codes::CYCLE,
            labels.clone(),
            format!(
                "potential deadlock: acquired-before graph cycle {}",
                labels.join(" → ")
            ),
        )
        .with_help(
            "two code paths acquire these ranks in opposite orders; a schedule exists \
             that deadlocks them against each other",
        );
        if seen.insert(d.dedup_key()) {
            diagnostics.push(d);
        }
    }
    let edges = g
        .edges
        .iter()
        .map(|(a, b)| Edge {
            from: g
                .labels
                .get(a)
                .cloned()
                .unwrap_or_else(|| format!("rank#{a}")),
            to: g
                .labels
                .get(b)
                .cloned()
                .unwrap_or_else(|| format!("rank#{b}")),
        })
        .collect();
    LockReport {
        diagnostics,
        edges,
        acquisitions: ACQUISITIONS.load(Ordering::Relaxed),
        wait_ms: WAIT_MICROS.load(Ordering::Relaxed) / 1000,
        held_across_io: HELD_ACROSS_IO.load(Ordering::Relaxed),
    }
}

/// Clear the graph, the violation log, and the counters (the held stacks
/// are live per-thread state and clear themselves as guards drop). Test
/// and experiment isolation only.
pub fn reset() {
    let mut g = lock_or_recover(graph());
    g.edges.clear();
    g.labels.clear();
    g.violations.clear();
    g.seen.clear();
    drop(g);
    // Invalidate every thread's local edge/declared caches so the next
    // acquisition re-records into the emptied graph.
    EPOCH.fetch_add(1, Ordering::Relaxed);
    WAIT_MICROS.store(0, Ordering::Relaxed);
    HELD_ACROSS_IO.store(0, Ordering::Relaxed);
    ACQUISITIONS.store(0, Ordering::Relaxed);
}

/// Total milliseconds threads spent blocked acquiring ordered locks
/// (checked builds only — the passthrough does not time acquisitions).
pub fn lock_wait_ms() -> u64 {
    WAIT_MICROS.load(Ordering::Relaxed) / 1000
}

/// IO sections entered with at least one ordered lock held.
pub fn held_across_io_total() -> u64 {
    HELD_ACROSS_IO.load(Ordering::Relaxed)
}
