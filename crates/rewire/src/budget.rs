//! Pool-wide accounting of virtual memory areas (VMAs).
//!
//! Every non-coalescible rewired slot costs the kernel one VMA, and the
//! kernel refuses to create mappings past `vm.max_map_count` (`mmap`
//! returns `ENOMEM`). The paper treats that limit as a deployment footnote
//! ("raise the sysctl"); production code has to treat it as a budget:
//!
//! * [`max_map_count`] reads the kernel limit once and caches it.
//! * [`VmaBudget`] tracks how many VMAs the rewiring layer currently
//!   holds (live **and** retired areas plus the pool view), so consumers
//!   can ask *before* a rebuild whether a directory of `n` mappings fits —
//!   instead of hand-deriving slot caps from the sysctl.
//! * [`PoolUsage`] attributes the shared total back to individual pools,
//!   and opt-in **fair-share admission**
//!   ([`VmaBudget::try_reserve_for`]) keeps one pool's directory rebuild
//!   from starving its siblings' — the contract the sharded index relies
//!   on when N shards share one `vm.max_map_count`.
//!
//! One process-global budget ([`VmaBudget::global`]) is shared by all
//! pools by default because `vm.max_map_count` is a per-process limit;
//! tests and stress rigs inject private budgets with a small limit via
//! [`crate::PoolConfig::vma_budget`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Kernel default for `vm.max_map_count`, used when the sysctl cannot be
/// read (non-Linux hosts, locked-down sandboxes).
pub const DEFAULT_MAX_MAP_COUNT: usize = 65_530;

/// The process's `vm.max_map_count`, read **once** from
/// `/proc/sys/vm/max_map_count` and cached for the lifetime of the
/// process. Falls back to [`DEFAULT_MAX_MAP_COUNT`] when the file is
/// absent or unparsable.
pub fn max_map_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::fs::read_to_string("/proc/sys/vm/max_map_count")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_MAP_COUNT)
    })
}

/// Headroom left unreserved by admission decisions against a budget of
/// `limit` mappings: 1/16 of the limit, capped at 1024. Proportional
/// rather than flat so that small *injected* budgets (tests, CI stress
/// rigs simulating a tiny `vm.max_map_count`) keep most of their limit
/// usable instead of being silently swallowed whole. Lives here (rather
/// than in the mapper that applies it) so fair-share arithmetic and
/// snapshots agree with admission on what "usable" means.
pub fn budget_headroom(limit: usize) -> usize {
    (limit / 16).min(1024)
}

/// Per-pool attribution of a shared [`VmaBudget`]: how many of the
/// budget's VMAs this pool (its view, live directory, and retired areas)
/// currently holds. Obtained from [`VmaBudget::register_pool`]; every
/// charge and release that goes through a [`BudgetBinding`] or a
/// pool-scoped reservation adjusts both counters in tandem.
///
/// Pools registered with `fair == true` additionally participate in
/// fair-share admission: see [`VmaBudget::try_reserve_for`].
#[derive(Debug)]
pub struct PoolUsage {
    in_use: AtomicUsize,
    fair: bool,
}

impl PoolUsage {
    /// VMAs currently attributed to this pool.
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Whether this pool participates in fair-share admission.
    pub fn is_fair(&self) -> bool {
        self.fair
    }

    pub(crate) fn charge(&self, n: usize) {
        self.in_use.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn release(&self, n: usize) {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .in_use
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A budget plus the pool the charges should be attributed to. This is
/// what areas carry instead of a bare `Arc<VmaBudget>`: every delta the
/// area's VMA estimate takes is mirrored into the pool's [`PoolUsage`]
/// (when present), so the shared total stays decomposable per pool.
#[derive(Debug, Clone)]
pub struct BudgetBinding {
    budget: Arc<VmaBudget>,
    pool: Option<Arc<PoolUsage>>,
}

impl BudgetBinding {
    /// A binding that charges the budget only (no per-pool attribution).
    pub fn new(budget: Arc<VmaBudget>) -> Self {
        BudgetBinding { budget, pool: None }
    }

    /// A binding that mirrors every charge into `pool`'s usage counter.
    pub fn with_pool(budget: Arc<VmaBudget>, pool: Arc<PoolUsage>) -> Self {
        BudgetBinding {
            budget,
            pool: Some(pool),
        }
    }

    /// The underlying shared budget.
    pub fn budget(&self) -> &Arc<VmaBudget> {
        &self.budget
    }

    /// The pool usage the binding attributes to, if any.
    pub fn pool(&self) -> Option<&Arc<PoolUsage>> {
        self.pool.as_ref()
    }

    pub(crate) fn charge(&self, n: usize) {
        self.budget.charge(n);
        if let Some(p) = &self.pool {
            p.charge(n);
        }
    }

    pub(crate) fn release(&self, n: usize) {
        self.budget.release(n);
        if let Some(p) = &self.pool {
            p.release(n);
        }
    }
}

/// A shared VMA budget: the mapping-count limit plus a running estimate of
/// the VMAs currently held by budget-attached areas and pool views.
///
/// The estimate is *accounting*, not enforcement — attaching an area never
/// fails. Enforcement happens at admission points (the shortcut mapper
/// checks [`VmaBudget::would_fit`] before building a directory) so a
/// too-large rebuild is skipped gracefully instead of dying inside `mmap`.
#[derive(Debug)]
pub struct VmaBudget {
    limit: AtomicUsize,
    in_use: AtomicUsize,
    /// Pools registered for attribution (weak: a dropped pool's retired
    /// areas keep their own `Arc<PoolUsage>` alive until reclaimed, but
    /// the registry itself must not leak entries).
    pools: Mutex<Vec<Weak<PoolUsage>>>,
}

impl VmaBudget {
    /// A budget with an explicit mapping limit (tests, stress rigs).
    pub fn with_limit(limit: usize) -> Arc<Self> {
        Arc::new(VmaBudget {
            limit: AtomicUsize::new(limit),
            in_use: AtomicUsize::new(0),
            pools: Mutex::new(Vec::new()),
        })
    }

    /// The process-global budget, limited by [`max_map_count`]. All pools
    /// share it unless given a private budget, because the kernel limit is
    /// per-process no matter how many pools exist.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<VmaBudget>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| VmaBudget::with_limit(max_map_count())))
    }

    /// The mapping-count limit this budget enforces against.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Override the limit (e.g. to simulate a small `vm.max_map_count`
    /// without the sysctl). Takes effect for future admission checks.
    pub fn set_limit(&self, limit: usize) {
        self.limit.store(limit, Ordering::Relaxed);
    }

    /// Estimated VMAs currently held against this budget (live areas,
    /// retired-but-unreclaimed areas, pool views).
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Register a pool for per-pool attribution (and, when `fair`, for
    /// fair-share admission). The returned handle is what
    /// [`BudgetBinding::with_pool`] and [`VmaBudget::try_reserve_for`]
    /// charge against; dead registrations are pruned lazily.
    pub fn register_pool(&self, fair: bool) -> Arc<PoolUsage> {
        let usage = Arc::new(PoolUsage {
            in_use: AtomicUsize::new(0),
            fair,
        });
        let mut pools = self.pools.lock().unwrap_or_else(|p| p.into_inner());
        pools.retain(|w| w.strong_count() > 0);
        pools.push(Arc::downgrade(&usage));
        usage
    }

    /// Number of live fair-share pools registered on this budget.
    pub fn fair_pool_count(&self) -> usize {
        let pools = self.pools.lock().unwrap_or_else(|p| p.into_inner());
        pools
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|p| p.fair)
            .count()
    }

    /// The per-pool fair share under `headroom`: the usable budget divided
    /// evenly among the live fair-share pools (0 when none participate).
    /// A fair pool's reservations inside this floor are never blocked by
    /// a sibling's consumption; see [`VmaBudget::try_reserve_for`].
    pub fn fair_share(&self, headroom: usize) -> usize {
        let n = self.fair_pool_count();
        if n == 0 {
            return 0;
        }
        self.limit().saturating_sub(headroom) / n
    }

    /// Sum over the live fair-share pools other than `pool` of their
    /// *unfilled guarantees*: `max(fair − in_use, 0)`. An over-fair
    /// reservation must leave this much budget spare so every sibling can
    /// still grow into its floor.
    fn sibling_guarantee_slack(&self, pool: &Arc<PoolUsage>, fair: usize) -> usize {
        let pools = self.pools.lock().unwrap_or_else(|p| p.into_inner());
        pools
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|p| p.fair && !Arc::ptr_eq(p, pool))
            .map(|p| fair.saturating_sub(p.in_use()))
            .sum()
    }

    /// The admission cap (in total budget `in_use`) that a reservation of
    /// `extra` VMAs by `pool` must stay under. Non-fair pools and
    /// within-fair-share requests see the plain `limit − headroom` cap;
    /// an over-fair request additionally leaves the siblings' unfilled
    /// guarantees spare.
    fn admission_cap(&self, pool: &Arc<PoolUsage>, extra: usize, headroom: usize) -> usize {
        let usable = self.limit().saturating_sub(headroom);
        if !pool.fair {
            return usable;
        }
        let fair = self.fair_share(headroom);
        if pool.in_use().saturating_add(extra) <= fair {
            // Inside the guaranteed floor: over-fair siblings have left
            // this slack untouched by construction, so only the global
            // cap applies.
            usable
        } else {
            usable.saturating_sub(self.sibling_guarantee_slack(pool, fair))
        }
    }

    /// Whether `extra` additional VMAs fit under the limit while leaving
    /// `headroom` mappings spare for everything the budget does not track
    /// (the binary, heap, thread stacks, transient splits).
    ///
    /// This is a racy read — fine for cheap pre-checks and metrics, but
    /// admission decisions must go through [`VmaBudget::try_reserve`],
    /// which commits atomically.
    pub fn would_fit(&self, extra: usize, headroom: usize) -> bool {
        let limit = self.limit().saturating_sub(headroom);
        self.in_use().saturating_add(extra) <= limit
    }

    /// [`VmaBudget::would_fit`] under the fair-share admission cap of
    /// `pool` — the racy pre-check matching
    /// [`VmaBudget::try_reserve_for`].
    pub fn would_fit_for(&self, pool: &Arc<PoolUsage>, extra: usize, headroom: usize) -> bool {
        let cap = self.admission_cap(pool, extra, headroom);
        self.in_use().saturating_add(extra) <= cap
    }

    /// Atomically reserve `extra` VMAs if they fit under the limit minus
    /// `headroom` (compare-and-swap on the running estimate — two pools'
    /// mapper threads admitting rebuilds concurrently cannot both slip
    /// past the limit the way a check-then-charge pair could). The
    /// reservation is released when the returned guard drops; callers
    /// hold it across a rebuild and drop it once the built area has
    /// attached its own (exact) charge.
    ///
    /// Residual imprecision: reservations are worst-case while attached
    /// areas charge their *current* estimate, so a directory that
    /// fragments after admission (bucket splits breaking merged runs)
    /// consumes margin that another pool may meanwhile have reserved.
    /// That second-order overlap can only surface as a cleanly-reported
    /// `mmap` failure, never an unaccounted mapping.
    pub fn try_reserve(
        self: &Arc<Self>,
        extra: usize,
        headroom: usize,
    ) -> Option<BudgetReservation> {
        let cap = self.limit().saturating_sub(headroom);
        self.reserve_under_cap(extra, cap, None)
    }

    /// Pool-attributed, fairness-aware [`VmaBudget::try_reserve`]: the
    /// reserved VMAs are charged to `pool`'s usage as well, and — when the
    /// pool was registered fair — admission enforces the fair-share rule:
    ///
    /// * A request that keeps the pool **within its fair share**
    ///   (`limit − headroom` divided by the number of fair pools) only
    ///   has to fit under the global cap.
    /// * A request that takes the pool **over** its fair share must
    ///   additionally leave every fair sibling's unfilled guarantee
    ///   (`max(fair − sibling_in_use, 0)`, summed) spare — a hot shard
    ///   may spill into the division remainder or budget freed by a
    ///   *departed* sibling (the share recomputes over live pools), but
    ///   never into the margin a sibling is still entitled to for its
    ///   own rebuild.
    ///
    /// Non-fair pools (the default) see exactly the plain `try_reserve`
    /// admission; their reservations are merely attributed.
    pub fn try_reserve_for(
        self: &Arc<Self>,
        pool: &Arc<PoolUsage>,
        extra: usize,
        headroom: usize,
    ) -> Option<BudgetReservation> {
        let cap = self.admission_cap(pool, extra, headroom);
        self.reserve_under_cap(extra, cap, Some(Arc::clone(pool)))
    }

    /// CAS-commit `extra` into `in_use` if the result stays `<= cap`.
    /// The cap itself is computed from racy sibling reads *before* the
    /// loop; that imprecision is conservative in the steady state (a
    /// sibling's concurrent growth only shrinks what this pool should
    /// take) and second-order at worst, like the overlap note on
    /// [`VmaBudget::try_reserve`].
    fn reserve_under_cap(
        self: &Arc<Self>,
        extra: usize,
        cap: usize,
        pool: Option<Arc<PoolUsage>>,
    ) -> Option<BudgetReservation> {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(extra)?;
            if next > cap {
                return None;
            }
            match self
                .in_use
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    if let Some(p) = &pool {
                        p.charge(extra);
                    }
                    return Some(BudgetReservation {
                        budget: Arc::clone(self),
                        pool,
                        n: extra,
                    });
                }
                Err(observed) => cur = observed,
            }
        }
    }

    pub(crate) fn charge(&self, n: usize) {
        self.in_use.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn release(&self, n: usize) {
        // Saturating: a release can never drive the estimate negative even
        // if a caller double-counts during teardown.
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .in_use
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A held VMA reservation from [`VmaBudget::try_reserve`] /
/// [`VmaBudget::try_reserve_for`]; the reserved count (and its per-pool
/// attribution, if any) is released back on drop.
#[derive(Debug)]
pub struct BudgetReservation {
    budget: Arc<VmaBudget>,
    pool: Option<Arc<PoolUsage>>,
    n: usize,
}

impl BudgetReservation {
    /// Convert the worst-case reservation into an exact charge of
    /// `exact` VMAs in one adjustment: the budget goes straight from
    /// `reserved` to `exact` held, never transiently holding both (which
    /// could push the estimate past the limit) and never dipping to zero
    /// (which would let a concurrent reservation steal the margin). The
    /// caller then owns the `exact` charge — typically by attaching the
    /// budget to the built area as prepaid.
    pub fn settle(mut self, exact: usize) {
        match exact.cmp(&self.n) {
            std::cmp::Ordering::Less => {
                self.budget.release(self.n - exact);
                if let Some(p) = &self.pool {
                    p.release(self.n - exact);
                }
            }
            std::cmp::Ordering::Greater => {
                self.budget.charge(exact - self.n);
                if let Some(p) = &self.pool {
                    p.charge(exact - self.n);
                }
            }
            std::cmp::Ordering::Equal => {}
        }
        self.n = 0; // the drop below releases nothing
    }

    /// The pool this reservation is attributed to, if it came from
    /// [`VmaBudget::try_reserve_for`]. A settled charge belongs to the
    /// same pool; callers attaching the built area prepaid must bind it
    /// with the same attribution so the release on drop matches.
    pub fn pool(&self) -> Option<&Arc<PoolUsage>> {
        self.pool.as_ref()
    }
}

impl Drop for BudgetReservation {
    fn drop(&mut self) {
        self.budget.release(self.n);
        if let Some(p) = &self.pool {
            p.release(self.n);
        }
    }
}

crate::statistics! {
    /// Point-in-time view of the VMA budget and retirement machinery, merged
    /// into the facade's statistics snapshot. Merging snapshots of pools
    /// **sharing one budget** takes the max of what every pool reports of
    /// the shared budget (summing would count it once per pool) and sums
    /// the per-pool quantities.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct VmaSnapshot {
        /// Estimated VMAs currently held (live + retired areas + pool view).
        /// For a shared budget this is the **process-wide** total, not this
        /// pool's share — see [`VmaSnapshot::pool_in_use`] for the latter.
        in_use: u64 = Max,
        /// Mapping-count limit of the budget (`vm.max_map_count` unless
        /// overridden).
        limit: u64 = Max,
        /// Estimated VMAs held by retired (superseded, not yet reclaimed)
        /// areas — the part of `in_use` that drains once readers quiesce.
        retired_vmas: u64 = Sum,
        /// Retired areas still mapped, waiting for readers to drain.
        retired_areas: u64 = Sum,
        /// Areas handed to the retire list over the pool's lifetime.
        areas_retired: u64 = Sum,
        /// Retired areas reclaimed (munmapped) so far.
        areas_reclaimed: u64 = Sum,
        /// Estimated VMAs those reclaimed areas gave back.
        vmas_reclaimed: u64 = Sum,
        /// VMAs attributed to **this pool** (its view, live directory, and
        /// retired areas). Equals `in_use` when the pool has the budget to
        /// itself; on a shared budget the pools' `pool_in_use` values sum to
        /// (at most) `in_use`.
        pool_in_use: u64 = Sum,
        /// Live fair-share pools registered on the budget (0 when fairness is
        /// not in play).
        fair_pools: u64 = Max,
        /// The per-pool fair-share floor at the default admission headroom
        /// (0 when no pool participates).
        fair_share: u64 = Max,
    }
}

impl VmaSnapshot {
    /// Estimated VMAs held by *live* mappings (the current directory plus
    /// the pool view): `in_use` minus the retired share. This is the
    /// number that must stay low for the index to keep fitting under
    /// `vm.max_map_count` — retired VMAs are transient by construction.
    pub fn live_vmas(&self) -> u64 {
        self.in_use.saturating_sub(self.retired_vmas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_map_count_is_cached_and_sane() {
        let a = max_map_count();
        let b = max_map_count();
        assert_eq!(a, b);
        assert!(a >= 1024, "implausible map count {a}");
    }

    #[test]
    fn charge_release_roundtrip() {
        let b = VmaBudget::with_limit(100);
        b.charge(30);
        assert_eq!(b.in_use(), 30);
        assert!(b.would_fit(70, 0));
        assert!(!b.would_fit(71, 0));
        assert!(!b.would_fit(70, 10));
        b.release(20);
        assert_eq!(b.in_use(), 10);
        // Saturating under-release.
        b.release(1000);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn try_reserve_commits_atomically_and_releases_on_drop() {
        let b = VmaBudget::with_limit(100);
        b.charge(40);
        let r = b.try_reserve(50, 0).expect("50 fits over 40/100");
        assert_eq!(b.in_use(), 90);
        assert!(b.try_reserve(20, 0).is_none(), "past the limit");
        assert!(b.try_reserve(11, 0).is_none(), "one past the limit");
        drop(r);
        assert_eq!(b.in_use(), 40);
        assert!(b.try_reserve(10, 50).is_some(), "headroom respected");
    }

    #[test]
    fn limit_override_applies() {
        let b = VmaBudget::with_limit(100);
        b.set_limit(10);
        b.charge(8);
        assert!(b.would_fit(2, 0));
        assert!(!b.would_fit(3, 0));
    }

    #[test]
    fn global_budget_is_shared() {
        let a = VmaBudget::global();
        let b = VmaBudget::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.limit(), max_map_count());
    }

    #[test]
    fn pool_registration_attributes_charges() {
        let b = VmaBudget::with_limit(100);
        let p = b.register_pool(false);
        let binding = BudgetBinding::with_pool(Arc::clone(&b), Arc::clone(&p));
        binding.charge(7);
        assert_eq!(b.in_use(), 7);
        assert_eq!(p.in_use(), 7);
        binding.release(3);
        assert_eq!(b.in_use(), 4);
        assert_eq!(p.in_use(), 4);
        // Non-pool binding only moves the shared total.
        let plain = BudgetBinding::new(Arc::clone(&b));
        plain.charge(6);
        assert_eq!(b.in_use(), 10);
        assert_eq!(p.in_use(), 4);
    }

    #[test]
    fn reserve_for_settle_and_drop_track_pool_usage() {
        let b = VmaBudget::with_limit(100);
        let p = b.register_pool(false);
        let r = b.try_reserve_for(&p, 30, 0).expect("fits");
        assert_eq!(b.in_use(), 30);
        assert_eq!(p.in_use(), 30);
        r.settle(12);
        assert_eq!(b.in_use(), 12);
        assert_eq!(p.in_use(), 12);
        let r2 = b.try_reserve_for(&p, 20, 0).expect("fits");
        drop(r2);
        assert_eq!(b.in_use(), 12);
        assert_eq!(p.in_use(), 12);
    }

    #[test]
    fn fair_share_divides_usable_budget() {
        let b = VmaBudget::with_limit(120);
        assert_eq!(b.fair_share(0), 0, "no fair pools yet");
        let _p1 = b.register_pool(true);
        let _p2 = b.register_pool(true);
        let _np = b.register_pool(false); // non-fair: not a divisor
        assert_eq!(b.fair_pool_count(), 2);
        assert_eq!(b.fair_share(0), 60);
        assert_eq!(b.fair_share(20), 50);
    }

    #[test]
    fn over_fair_reservation_leaves_sibling_guarantees() {
        // Two fair pools, limit 100, headroom 0 → fair share 50 each.
        let b = VmaBudget::with_limit(100);
        let hot = b.register_pool(true);
        let cold = b.register_pool(true);

        // Hot pool may fill its own floor freely…
        let r1 = b.try_reserve_for(&hot, 50, 0).expect("within fair share");
        // …but over-fair growth must leave cold's full 50 spare.
        assert!(
            b.try_reserve_for(&hot, 10, 0).is_none(),
            "over-fair reservation stole the sibling's guarantee"
        );
        assert!(!b.would_fit_for(&hot, 10, 0));

        // The cold sibling's own (within-fair) rebuild still fits — the
        // whole point: hot's pressure cannot have consumed cold's floor.
        let r2 = b.try_reserve_for(&cold, 40, 0).expect("guaranteed floor");
        let r3 = b.try_reserve_for(&cold, 10, 0).expect("rest of the floor");
        // Budget fully consumed at the fair split; nothing left to take.
        assert!(b.try_reserve_for(&hot, 1, 0).is_none(), "cap reached");
        drop((r1, r2, r3));
        assert_eq!(b.in_use(), 0);
        assert_eq!(hot.in_use(), 0);
        assert_eq!(cold.in_use(), 0);
    }

    #[test]
    fn departed_sibling_share_becomes_borrowable() {
        // Fair shares recompute over *live* pools: once a sibling pool is
        // dropped, its share returns to the common pot and a hot pool may
        // spill past its old floor.
        let b = VmaBudget::with_limit(100);
        let hot = b.register_pool(true);
        let cold = b.register_pool(true);
        assert!(b.try_reserve_for(&hot, 60, 0).is_none(), "over-fair at N=2");
        drop(cold);
        let r = b
            .try_reserve_for(&hot, 60, 0)
            .expect("sole fair pool owns the usable budget");
        // The division remainder is spill-able too: 3 fair pools over 100
        // leave 100 − 3·33 = 1 above the summed guarantees.
        drop(r);
        let p2 = b.register_pool(true);
        let p3 = b.register_pool(true);
        assert_eq!(b.fair_share(0), 33);
        let r = b.try_reserve_for(&hot, 34, 0).expect("remainder spill");
        assert!(b.try_reserve_for(&hot, 1, 0).is_none(), "guarantees held");
        drop((r, p2, p3));
    }

    #[test]
    fn non_fair_pools_see_plain_admission() {
        let b = VmaBudget::with_limit(100);
        let _fair = b.register_pool(true);
        let plain = b.register_pool(false);
        // A non-fair pool is not constrained by the fair sibling's
        // unfilled guarantee — exactly today's first-come admission.
        assert!(b.try_reserve_for(&plain, 100, 0).is_some());
    }

    #[test]
    fn dropped_pools_leave_the_registry() {
        let b = VmaBudget::with_limit(100);
        let p1 = b.register_pool(true);
        {
            let _p2 = b.register_pool(true);
            assert_eq!(b.fair_pool_count(), 2);
        }
        // p2 is gone; registration prunes, and the count reflects it.
        let _p3 = b.register_pool(true);
        assert_eq!(b.fair_pool_count(), 2);
        drop(p1);
        assert_eq!(b.fair_pool_count(), 1);
    }

    #[test]
    fn snapshot_merge_sums_pool_counters_and_maxes_shared_gauges() {
        let a = VmaSnapshot {
            in_use: 41,
            limit: 100,
            retired_vmas: 5,
            retired_areas: 1,
            areas_retired: 3,
            areas_reclaimed: 2,
            vmas_reclaimed: 9,
            pool_in_use: 25,
            fair_pools: 4,
            fair_share: 45,
        };
        let b = VmaSnapshot {
            in_use: 40,
            limit: 101,
            retired_vmas: 12,
            retired_areas: 7,
            areas_retired: 13,
            areas_reclaimed: 6,
            vmas_reclaimed: 16,
            pool_in_use: 15,
            fair_pools: 3,
            fair_share: 46,
        };
        let m = a.merge(&b);
        assert_eq!(
            m,
            VmaSnapshot {
                // Shared-budget gauges: max, not sum.
                in_use: 41,
                limit: 101,
                fair_pools: 4,
                fair_share: 46,
                // Per-pool quantities: sum.
                retired_vmas: 17,
                retired_areas: 8,
                areas_retired: 16,
                areas_reclaimed: 8,
                vmas_reclaimed: 25,
                pool_in_use: 40,
            }
        );
        assert_eq!(m, b.merge(&a));
        assert_eq!(m.live_vmas(), 41 - 17);
    }
}
