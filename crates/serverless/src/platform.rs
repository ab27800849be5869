//! The event-driven instance pool.
//!
//! Invocations arrive with a submission time; the platform routes each to
//! an idle warm instance (load-balanced), or cold-starts a new instance
//! when none is free — serverless scale-out on demand. Instances expire
//! after a keep-alive window of idleness. Execution time is sampled from
//! the inference latency model, and every invocation is billed with
//! Eqn. (1).

use crate::function::FunctionSpec;
use crate::lb::RoundRobin;
use crate::pricing::ResourcePrices;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use tangram_infer::latency::InferenceLatencyModel;
use tangram_sim::rng::DetRng;
use tangram_types::ids::{InstanceId, InvocationId};
use tangram_types::time::{SimDuration, SimTime};
use tangram_types::units::Dollars;

/// A batch submitted for execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationRequest {
    /// Number of canvases in the batch (bounded by constraint (5)).
    pub canvases: usize,
    /// Total pixels of the batch in megapixels (drives execution time).
    pub megapixels: f64,
    /// When the scheduler dispatched the batch.
    pub submitted: SimTime,
}

/// The result of one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationOutcome {
    /// Invocation identity.
    pub id: InvocationId,
    /// Instance that served it.
    pub instance: InstanceId,
    /// Whether a cold start preceded execution.
    pub cold: bool,
    /// When execution began (submission + queueing + cold start).
    pub started: SimTime,
    /// When results were ready.
    pub finished: SimTime,
    /// Pure execution time (the billed duration's basis).
    pub execution: SimDuration,
    /// Eqn. (1) cost of this invocation.
    pub cost: Dollars,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// The batch needs more GPU memory than one instance has
    /// (constraint (5)); the scheduler must split it.
    BatchTooLarge {
        /// Canvases requested.
        requested: usize,
        /// Canvases an instance can hold.
        capacity: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::BatchTooLarge {
                requested,
                capacity,
            } => write!(
                f,
                "batch of {requested} canvases exceeds instance capacity {capacity}"
            ),
        }
    }
}

impl Error for PlatformError {}

#[derive(Debug, Clone)]
struct Instance {
    id: InstanceId,
    /// When its last execution ends; it expires `keep_alive` later.
    busy_until: SimTime,
}

impl Instance {
    /// Provisioned at `now`: executing, or warm inside its keep-alive.
    fn is_live(&self, now: SimTime, keep_alive: SimDuration) -> bool {
        self.busy_until + keep_alive > now
    }

    /// Warm and free at `now`: what the balancer chooses among.
    fn is_idle(&self, now: SimTime, keep_alive: SimDuration) -> bool {
        self.busy_until <= now && self.is_live(now, keep_alive)
    }
}

/// A set of instance-table positions, one bit each.
#[derive(Debug, Default)]
struct IdleSet {
    words: Vec<u64>,
}

impl IdleSet {
    /// Empties the set and sizes it for a table of `len` instances.
    fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Makes room for position `len - 1` after the table grew to `len`.
    fn grow(&mut self, len: usize) {
        if self.words.len() * 64 < len {
            self.words.push(0);
        }
    }

    fn insert(&mut self, position: usize) {
        self.words[position / 64] |= 1 << (position % 64);
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes and returns the `k`-th smallest position in the set.
    fn take_nth(&mut self, mut k: usize) -> usize {
        for (index, word) in self.words.iter_mut().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let bit = select(*word, k as u32);
                *word &= !(1 << bit);
                return index * 64 + bit as usize;
            }
            k -= ones;
        }
        unreachable!("the set holds more than k positions")
    }
}

/// The position of the `k`-th set bit of `word`, counting from the least
/// significant (`k` must be below its popcount): a binary search that
/// keeps the low half when it holds more than `k` set bits and otherwise
/// shifts it out.
fn select(mut word: u64, mut k: u32) -> u32 {
    let mut bit = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1 << half) - 1)).count_ones();
        if k >= low {
            k -= low;
            word >>= half;
            bit += half;
        }
    }
    bit
}

/// Where [`ServerlessPlatform::submit`] decided a batch runs: the
/// instance's position in the table, whether it was just cold-started,
/// and when execution begins.
type Placement = (usize, bool, SimTime);

/// A point-in-time reading of backend pressure — the signals an
/// ingress admission policy consumes to decide whether an arriving work
/// item can still be served in time.
///
/// Pure read: taking a snapshot never mutates the platform (no instance
/// reaping, no RNG draws), so admission control cannot perturb the
/// simulation of the work it admits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSnapshot {
    /// Submitted invocations whose completion has not been acknowledged.
    pub in_flight: usize,
    /// Instances currently provisioned (warm or busy).
    pub live_instances: usize,
    /// The platform's instance cap (`None` = unlimited scale-out).
    pub max_instances: Option<usize>,
    /// When a batch submitted *now* would start executing: immediately on
    /// an idle warm instance, after the mean cold-start delay on
    /// scale-out, or queued behind the earliest-free instance at the cap.
    pub earliest_start: SimTime,
    /// Total remaining in-flight execution time (sum over invocations of
    /// `finished - now`).
    pub backlog: SimDuration,
}

/// Aggregate platform statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlatformStats {
    /// Invocations served.
    pub invocations: u64,
    /// Cold starts among them.
    pub cold_starts: u64,
    /// Total execution time across instances.
    pub busy_time: SimDuration,
    /// Total Eqn. (1) cost.
    pub total_cost: Dollars,
    /// Peak number of simultaneously live instances.
    pub peak_instances: usize,
}

/// The serverless backend.
pub struct ServerlessPlatform {
    spec: FunctionSpec,
    prices: ResourcePrices,
    model: InferenceLatencyModel,
    balancer: RoundRobin,
    keep_alive: SimDuration,
    cold_start_mean: SimDuration,
    /// Physical capacity cap: at most this many simultaneous instances
    /// (the paper's testbed hosts ~8 six-GB functions on two 24-GB
    /// RTX 4090s). `None` = unlimited scale-out. Requests beyond the cap
    /// queue on the earliest-free instance.
    pub max_instances: Option<usize>,
    /// The instance table, in ascending [`InstanceId`] order: instances
    /// are only ever pushed with a fresh (larger) id or dropped by
    /// `retain`, which keeps order. The balancer's "*k*-th idle instance"
    /// is counted in this order.
    instances: Vec<Instance>,
    /// The table positions of the instances idle at `placed_at`. Every
    /// other instance has an entry in `busy` keyed by its `busy_until`.
    idle: IdleSet,
    /// `(busy_until, position)` per execution started, earliest first.
    /// An entry whose key is no longer its instance's `busy_until` is
    /// stale (the at-cap arm re-queued the instance) and is skipped.
    busy: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// The instant `idle` describes: the last placement or eviction.
    placed_at: SimTime,
    /// No instance in `idle` expires before this instant. Picks do not
    /// raise it, so it is a lower bound, not the minimum.
    idle_expiry_floor: SimTime,
    next_instance: InstanceId,
    next_invocation: InvocationId,
    stats: PlatformStats,
    /// Execution-time multiplier for backend brownout injection: every
    /// sampled execution is scaled by this factor. Exactly 1.0 (the
    /// default) is a guaranteed no-op — the sampled duration is passed
    /// through untouched, keeping fault-free runs byte-identical.
    compute_factor: f64,
    rng: DetRng,
    /// Invocations submitted but not yet acknowledged by the driver:
    /// `(id, finishes_at)` in submission order.
    in_flight: Vec<(InvocationId, SimTime)>,
}

impl ServerlessPlatform {
    /// Creates a platform with the paper's defaults: Alibaba FC pricing,
    /// round-robin balancing, 60 s keep-alive, ~60 ms cold starts.
    #[must_use]
    pub fn new(spec: FunctionSpec, model: InferenceLatencyModel, seed: u64) -> Self {
        Self {
            spec,
            prices: ResourcePrices::alibaba_fc(),
            model,
            balancer: RoundRobin::default(),
            keep_alive: SimDuration::from_secs(60),
            cold_start_mean: SimDuration::from_millis(60),
            max_instances: Some(8),
            instances: Vec::new(),
            idle: IdleSet::default(),
            busy: BinaryHeap::new(),
            placed_at: SimTime::ZERO,
            idle_expiry_floor: SimTime::MAX,
            next_instance: InstanceId::default(),
            next_invocation: InvocationId::default(),
            stats: PlatformStats::default(),
            compute_factor: 1.0,
            rng: DetRng::new(seed).fork("serverless"),
            in_flight: Vec::new(),
        }
    }

    /// Replaces the price table.
    #[must_use]
    pub fn with_prices(mut self, prices: ResourcePrices) -> Self {
        self.prices = prices;
        self
    }

    /// The function spec in force.
    #[must_use]
    pub fn spec(&self) -> &FunctionSpec {
        &self.spec
    }

    /// Aggregate statistics so far.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.stats
    }

    /// Keep-alive window before an idle instance is reclaimed.
    #[must_use]
    pub fn keep_alive(&self) -> SimDuration {
        self.keep_alive
    }

    /// Mean cold-start delay (lognormal-sampled; §I: "tens of
    /// milliseconds" for a pre-provisioned GPU runtime).
    #[must_use]
    pub fn cold_start_mean(&self) -> SimDuration {
        self.cold_start_mean
    }

    /// Sets the brownout execution-time multiplier (see the
    /// `compute_factor` field). 1.0 restores exact no-fault timing: the
    /// latency model's draw sequence is never perturbed, only the
    /// already-sampled duration is scaled.
    pub fn set_compute_factor(&mut self, factor: f64) {
        self.compute_factor = factor;
    }

    /// The brownout execution-time multiplier in force.
    #[must_use]
    pub fn compute_factor(&self) -> f64 {
        self.compute_factor
    }

    /// Evicts idle warm instances (cold-start-storm injection): every
    /// instance not executing at `now` is reclaimed immediately, so the
    /// next submission pays a fresh cold start. Returns the number
    /// evicted. Busy instances finish their work — only warmth is lost.
    pub fn evict_idle(&mut self, now: SimTime) -> usize {
        let before = self.instances.len();
        self.instances.retain(|i| i.busy_until > now);
        // Positions moved under `idle` and `busy`.
        self.rebuild(now);
        before - self.instances.len()
    }

    /// Submits a batch for execution, leaving its completion *in flight*.
    ///
    /// The returned outcome carries the scheduled `finished` instant; an
    /// event-driven caller turns it into a `FunctionComplete` event and
    /// acknowledges delivery with [`Self::complete`] when that event
    /// fires. Until then the invocation counts toward
    /// [`Self::in_flight`].
    ///
    /// # Errors
    ///
    /// [`PlatformError::BatchTooLarge`] when the batch violates the GPU
    /// memory bound (constraint (5)).
    pub fn submit(
        &mut self,
        request: InvocationRequest,
    ) -> Result<InvocationOutcome, PlatformError> {
        let capacity = self.spec.max_canvases();
        if request.canvases > capacity {
            return Err(PlatformError::BatchTooLarge {
                requested: request.canvases,
                capacity,
            });
        }
        let placement = self.place(request.submitted);
        Ok(self.run(request, placement))
    }

    /// Chooses the instance for a batch submitted at `now`: an idle warm
    /// one (balanced), else a cold-started one, else — at the cap — the
    /// earliest-free one. Without a table scan: the balancer's *k*-th
    /// idle instance in id order is the *k*-th set bit of `idle`.
    fn place(&mut self, now: SimTime) -> Placement {
        self.catch_up(now);
        match self.balancer.pick(self.idle.len()) {
            Some(kth) => (self.idle.take_nth(kth), false, now),
            None if self
                .max_instances
                .is_none_or(|cap| self.instances.len() < cap) =>
            {
                // Scale out: cold-start a fresh instance.
                let delay = self.sample_cold_start();
                let id = self.next_instance.bump();
                self.instances.push(Instance {
                    id,
                    busy_until: now,
                });
                self.idle.grow(self.instances.len());
                (self.instances.len() - 1, true, now + delay)
            }
            None => {
                // Capacity cap: queue on the earliest-free instance.
                let idx = self
                    .instances
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, i)| i.busy_until)
                    .map(|(i, _)| i)
                    .expect("cap > 0 implies at least one instance");
                let start = self.instances[idx].busy_until.max(now);
                (idx, false, start)
            }
        }
    }

    /// Brings `idle` from `placed_at` to `now`: every execution that has
    /// ended by `now` joins it. The table is rebuilt instead — expired
    /// instances reaped before its length is read — when `now` is earlier
    /// than `placed_at` or an idle instance may have expired.
    fn catch_up(&mut self, now: SimTime) {
        if now < self.placed_at {
            self.rebuild(now);
            return;
        }
        while let Some(&Reverse((until, idx))) = self.busy.peek() {
            if until > now {
                break;
            }
            self.busy.pop();
            if self.instances[idx].busy_until == until {
                self.idle.insert(idx);
                self.idle_expiry_floor = self.idle_expiry_floor.min(until + self.keep_alive);
            }
        }
        if self.idle_expiry_floor <= now {
            self.rebuild(now);
        } else {
            self.placed_at = now;
        }
    }

    /// Reaps the instances expired at `now` and sorts the rest into
    /// `idle` and `busy` as of `now` — one scan of the table.
    fn rebuild(&mut self, now: SimTime) {
        let keep_alive = self.keep_alive;
        self.idle.reset(self.instances.len());
        self.busy.clear();
        self.idle_expiry_floor = SimTime::MAX;
        let mut idx = 0;
        self.instances.retain(|instance| {
            if !instance.is_live(now, keep_alive) {
                return false;
            }
            if instance.busy_until <= now {
                self.idle.insert(idx);
                self.idle_expiry_floor =
                    self.idle_expiry_floor.min(instance.busy_until + keep_alive);
            } else {
                self.busy.push(Reverse((instance.busy_until, idx)));
            }
            idx += 1;
            true
        });
        self.placed_at = now;
    }

    /// Executes `request` where [`Self::place`] put it: samples the
    /// execution, bills it, occupies the instance and leaves the
    /// invocation in flight.
    fn run(
        &mut self,
        request: InvocationRequest,
        (instance_idx, cold, started): Placement,
    ) -> InvocationOutcome {
        let execution = self.model.sample(request.megapixels, &mut self.rng);
        // Brownout injection: scale the sampled duration without
        // touching the draw sequence. The exact-1.0 guard keeps
        // fault-free runs bit-identical (no float round-trip).
        let execution = if self.compute_factor == 1.0 {
            execution
        } else {
            execution.mul_f64(self.compute_factor)
        };
        let finished = started + execution;
        let cost = self.prices.invocation_cost(execution, &self.spec);

        self.instances[instance_idx].busy_until = finished;
        self.busy.push(Reverse((finished, instance_idx)));

        self.stats.invocations += 1;
        if cold {
            self.stats.cold_starts += 1;
        }
        self.stats.busy_time += execution;
        self.stats.total_cost += cost;
        self.stats.peak_instances = self.stats.peak_instances.max(self.instances.len());

        let outcome = InvocationOutcome {
            id: self.next_invocation.bump(),
            instance: self.instances[instance_idx].id,
            cold,
            started,
            finished,
            execution,
            cost,
        };
        self.in_flight.push((outcome.id, outcome.finished));
        outcome
    }

    /// Acknowledges the completion event of a previously [`Self::submit`]ted
    /// invocation, returning whether it was in flight.
    ///
    /// Ids are unique ([`InvocationId::bump`] never repeats), so the first
    /// match is the only one. Finding it is a scan, O(in-flight); removing
    /// it is O(1) by `swap_remove` — order is irrelevant because the one
    /// reader of the set, [`Self::snapshot`], only counts and sums it.
    pub fn complete(&mut self, id: InvocationId) -> bool {
        match self
            .in_flight
            .iter()
            .position(|&(pending, _)| pending == id)
        {
            Some(index) => {
                self.in_flight.swap_remove(index);
                true
            }
            None => false,
        }
    }

    /// Number of submitted invocations whose completion event has not yet
    /// been acknowledged.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Reads the backend-pressure signals at `now` (see
    /// [`BackendSnapshot`]). Pure: never reaps instances or draws from
    /// the RNG.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> BackendSnapshot {
        let live = |i: &&Instance| i.is_live(now, self.keep_alive);
        let live_instances = self.instances.iter().filter(live).count();
        let idle_warm = self
            .instances
            .iter()
            .any(|i| i.is_idle(now, self.keep_alive));
        let earliest_start = if idle_warm {
            now
        } else if self.max_instances.is_none_or(|cap| live_instances < cap) {
            // Scale-out path: the expected cold-start delay stands in for
            // the lognormal draw `submit` would make.
            now + self.cold_start_mean
        } else {
            self.instances
                .iter()
                .filter(live)
                .map(|i| i.busy_until)
                .min()
                .unwrap_or(now)
                .max(now)
        };
        let backlog = self
            .in_flight
            .iter()
            .map(|&(_, finished)| finished.since(now))
            .sum();
        BackendSnapshot {
            in_flight: self.in_flight.len(),
            live_instances,
            max_instances: self.max_instances,
            earliest_start,
            backlog,
        }
    }

    fn sample_cold_start(&mut self) -> SimDuration {
        let mean = self.cold_start_mean.as_secs_f64();
        // Lognormal with mean ≈ cold_start_mean and a fat-ish tail.
        let sigma = 0.35f64;
        SimDuration::from_secs_f64(self.rng.lognormal(mean.ln() - sigma * sigma / 2.0, sigma))
    }
}

impl fmt::Debug for ServerlessPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerlessPlatform")
            .field("spec", &self.spec)
            .field("instances", &self.instances.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> ServerlessPlatform {
        ServerlessPlatform::new(
            FunctionSpec::paper_default(),
            InferenceLatencyModel::rtx4090_yolov8x(),
            7,
        )
    }

    /// Submits a batch and acknowledges its completion at once, the
    /// engine's `submit` + `complete` pair with no event loop between.
    fn submit_and_ack(
        p: &mut ServerlessPlatform,
        request: InvocationRequest,
    ) -> Result<InvocationOutcome, PlatformError> {
        let outcome = p.submit(request)?;
        assert!(p.complete(outcome.id));
        Ok(outcome)
    }

    fn req(canvases: usize, at_us: u64) -> InvocationRequest {
        InvocationRequest {
            canvases,
            megapixels: canvases as f64 * 1.05,
            submitted: SimTime::from_micros(at_us),
        }
    }

    #[test]
    fn first_invocation_cold_starts() {
        let mut p = platform();
        let o = submit_and_ack(&mut p, req(1, 0)).unwrap();
        assert!(o.cold);
        assert!(o.started > SimTime::ZERO, "cold start delays execution");
        assert_eq!(p.stats().cold_starts, 1);
    }

    #[test]
    fn warm_instance_reused() {
        let mut p = platform();
        let first = submit_and_ack(&mut p, req(1, 0)).unwrap();
        // Submit after the first finishes: instance is warm and idle.
        let second = submit_and_ack(&mut p, req(1, first.finished.as_micros() + 1000)).unwrap();
        assert!(!second.cold);
        assert_eq!(second.instance, first.instance);
        assert_eq!(second.started, second.finished - second.execution);
    }

    #[test]
    fn concurrency_one_scales_out() {
        let mut p = platform();
        let a = submit_and_ack(&mut p, req(1, 0)).unwrap();
        // Same submission time: first instance is busy → second cold start.
        let b = submit_and_ack(&mut p, req(1, 0)).unwrap();
        assert!(b.cold);
        assert_ne!(a.instance, b.instance);
        assert_eq!(p.stats().peak_instances, 2);
    }

    #[test]
    fn keep_alive_expiry_forces_cold_start() {
        let mut p = platform();
        let first = submit_and_ack(&mut p, req(1, 0)).unwrap();
        let after_expiry = first.finished + p.keep_alive() + SimDuration::from_secs(1);
        let second = submit_and_ack(&mut p, req(1, after_expiry.as_micros())).unwrap();
        assert!(second.cold, "keep-alive elapsed; must cold start");
    }

    #[test]
    fn batch_too_large_rejected() {
        let mut p = platform();
        let capacity = p.spec().max_canvases();
        let err = submit_and_ack(&mut p, req(capacity + 1, 0)).unwrap_err();
        assert_eq!(
            err,
            PlatformError::BatchTooLarge {
                requested: capacity + 1,
                capacity
            }
        );
        assert!(err.to_string().contains("exceeds instance capacity"));
    }

    #[test]
    fn cost_accumulates_with_eqn1() {
        let mut p = platform();
        let o = submit_and_ack(&mut p, req(2, 0)).unwrap();
        let expected = ResourcePrices::alibaba_fc()
            .invocation_cost(o.execution, &FunctionSpec::paper_default());
        assert!((o.cost.get() - expected.get()).abs() < 1e-12);
        assert!((p.stats().total_cost.get() - o.cost.get()).abs() < 1e-12);
    }

    #[test]
    fn bigger_batches_run_longer_but_amortize() {
        let mut p = platform();
        let small = submit_and_ack(&mut p, req(1, 0)).unwrap();
        let big = submit_and_ack(&mut p, req(8, 10_000_000)).unwrap();
        assert!(big.execution > small.execution);
        let per_canvas_small = small.execution.as_secs_f64();
        let per_canvas_big = big.execution.as_secs_f64() / 8.0;
        assert!(
            per_canvas_big < per_canvas_small,
            "batching must amortize the base cost"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = platform();
        let mut b = platform();
        let oa = submit_and_ack(&mut a, req(3, 0)).unwrap();
        let ob = submit_and_ack(&mut b, req(3, 0)).unwrap();
        assert_eq!(oa, ob);
    }

    #[test]
    fn submit_tracks_in_flight_until_completed() {
        let mut p = platform();
        let a = p.submit(req(1, 0)).unwrap();
        let b = p.submit(req(1, 0)).unwrap();
        assert_eq!(p.in_flight(), 2);
        assert_eq!(
            p.snapshot(SimTime::ZERO).backlog,
            a.finished.since(SimTime::ZERO) + b.finished.since(SimTime::ZERO)
        );
        assert!(p.complete(a.id));
        assert_eq!(p.in_flight(), 1);
        assert!(!p.complete(a.id), "double-ack is a no-op");
        assert!(p.complete(b.id));
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.snapshot(SimTime::ZERO).backlog, SimDuration::ZERO);
    }

    #[test]
    fn completing_an_unknown_id_is_a_no_op() {
        let mut p = platform();
        let a = p.submit(req(1, 0)).unwrap();
        let b = p.submit(req(1, 0)).unwrap();
        let stats_before = p.stats();
        let snapshot_before = p.snapshot(SimTime::ZERO);

        // An id that was never issued: `bump` starts after the defaults,
        // so a far-future raw id can never collide.
        let unknown = InvocationId::new(u64::MAX);
        assert!(!p.complete(unknown));

        // Nothing moved: both invocations still in flight, same backlog,
        // same counters.
        assert_eq!(p.in_flight(), 2);
        assert_eq!(p.snapshot(SimTime::ZERO), snapshot_before);
        assert_eq!(p.stats(), stats_before);
        assert!(p.complete(a.id));
        assert!(p.complete(b.id));
    }

    #[test]
    fn snapshot_reads_pressure_without_mutating() {
        let mut p = platform();
        assert_eq!(p.snapshot(SimTime::ZERO).in_flight, 0);
        assert_eq!(p.snapshot(SimTime::ZERO).live_instances, 0);
        // Empty platform: a submission would cold-start.
        assert_eq!(
            p.snapshot(SimTime::ZERO).earliest_start,
            SimTime::ZERO + p.cold_start_mean()
        );

        let a = p.submit(req(1, 0)).unwrap();
        let snap = p.snapshot(SimTime::ZERO);
        assert_eq!(snap.in_flight, 1);
        assert_eq!(snap.live_instances, 1);
        assert_eq!(snap.backlog, a.finished.since(SimTime::ZERO));
        // Instance busy, but scale-out is open below the cap.
        assert_eq!(snap.earliest_start, SimTime::ZERO + p.cold_start_mean());

        // Saturate the cap: a new submission queues on the earliest-free
        // instance.
        p.max_instances = Some(1);
        let capped = p.snapshot(SimTime::ZERO);
        assert_eq!(capped.earliest_start, a.finished);

        // After completion the warm instance is idle: start is immediate.
        assert!(p.complete(a.id));
        let idle = p.snapshot(a.finished);
        assert_eq!(idle.in_flight, 0);
        assert_eq!(idle.backlog, SimDuration::ZERO);
        assert_eq!(idle.earliest_start, a.finished);

        // Snapshots are pure: sampling state (and thus the next outcome)
        // is untouched by any number of reads.
        let mut fresh = platform();
        let _ = fresh.snapshot(SimTime::ZERO);
        let via_snapshots = submit_and_ack(&mut fresh, req(3, 0)).unwrap();
        let direct = submit_and_ack(&mut platform(), req(3, 0)).unwrap();
        assert_eq!(via_snapshots, direct);
    }

    /// `submit` as it placed batches before it kept an idle set: reap,
    /// collect the idle ids, index that list, look the chosen id back up.
    /// `cursor` is the reference's own round-robin position. It reads and
    /// writes only the instance table; `run` still feeds the reference's
    /// `busy` heap, which nothing in it reads.
    fn submit_by_collecting(
        p: &mut ServerlessPlatform,
        cursor: &mut usize,
        request: InvocationRequest,
    ) -> Result<InvocationOutcome, PlatformError> {
        let capacity = p.spec.max_canvases();
        if request.canvases > capacity {
            return Err(PlatformError::BatchTooLarge {
                requested: request.canvases,
                capacity,
            });
        }
        let now = request.submitted;
        let keep_alive = p.keep_alive;
        let expires_at = |i: &Instance| i.busy_until + keep_alive;
        p.instances.retain(|i| expires_at(i) > now);
        let idle: Vec<InstanceId> = p
            .instances
            .iter()
            .filter(|i| i.busy_until <= now && expires_at(i) > now)
            .map(|i| i.id)
            .collect();
        let placement = if !idle.is_empty() {
            let chosen = idle[*cursor % idle.len()];
            *cursor = cursor.wrapping_add(1);
            let idx = p.instances.iter().position(|i| i.id == chosen).unwrap();
            (idx, false, now)
        } else if p.max_instances.is_none_or(|cap| p.instances.len() < cap) {
            let delay = p.sample_cold_start();
            let id = p.next_instance.bump();
            p.instances.push(Instance {
                id,
                busy_until: now,
            });
            (p.instances.len() - 1, true, now + delay)
        } else {
            let (idx, earliest) = p
                .instances
                .iter()
                .enumerate()
                .min_by_key(|(_, i)| i.busy_until)
                .unwrap();
            (idx, false, earliest.busy_until.max(now))
        };
        Ok(p.run(request, placement))
    }

    #[test]
    fn allocation_free_submit_places_exactly_like_collect_and_pick() {
        for cap in [None, Some(8), Some(1)] {
            let mut rng = DetRng::new(33).fork("platform-differential");
            let (mut subject, mut reference) = (platform(), platform());
            subject.max_instances = cap;
            reference.max_instances = cap;
            let capacity = subject.spec().max_canvases();
            let keep_alive = subject.keep_alive();
            let mut cursor = 0usize;
            let mut now = SimTime::ZERO;
            let mut outstanding = Vec::new();
            let (mut refused, mut queued, mut instant) = (0, 0, 0);
            for _ in 0..2_500 {
                // Bursts at one instant grow the pool; short gaps leave a
                // mix of busy and idle instances; a gap well past
                // `keep_alive` expires the whole pool, which the next
                // submit reaps, and one just past it expires the instances
                // that were idle while those still executing survive. A
                // step backwards reads the table at an earlier instant.
                now = match rng.index(50) {
                    0..=24 => now,
                    25..=38 => now + SimDuration::from_micros(rng.index(50_000) as u64),
                    39..=43 => now + SimDuration::from_millis(200 + rng.index(1_800) as u64),
                    44 => now + keep_alive + SimDuration::from_secs(1 + rng.index(100) as u64),
                    45..=46 => {
                        now + keep_alive + SimDuration::from_micros(rng.index(100_000) as u64)
                    }
                    _ => SimTime::from_micros(
                        now.as_micros().saturating_sub(rng.index(300_000) as u64),
                    ),
                };
                if rng.chance(0.02) {
                    assert_eq!(subject.evict_idle(now), reference.evict_idle(now));
                }
                // Bursts of zero-length executions: an instance is idle
                // again the instant it was picked, and many finish times
                // are equal.
                if rng.chance(0.04) {
                    let factor = if subject.compute_factor() == 1.0 {
                        0.0
                    } else {
                        1.0
                    };
                    subject.set_compute_factor(factor);
                    reference.set_compute_factor(factor);
                }
                let request = InvocationRequest {
                    canvases: 1 + rng.index(capacity + 1),
                    megapixels: rng.uniform_in(0.2, 9.0),
                    submitted: now,
                };
                let outcome = subject.submit(request);
                let expected = submit_by_collecting(&mut reference, &mut cursor, request);
                assert_eq!(outcome, expected);
                match outcome {
                    Ok(outcome) => {
                        outstanding.push(outcome.id);
                        queued += usize::from(!outcome.cold && outcome.started > now);
                        instant += usize::from(outcome.execution.is_zero());
                    }
                    Err(_) => refused += 1,
                }
                if rng.chance(0.6) && !outstanding.is_empty() {
                    let id = outstanding.swap_remove(rng.index(outstanding.len()));
                    assert!(subject.complete(id) && reference.complete(id));
                }
                assert_eq!(subject.stats(), reference.stats());
                assert_eq!(subject.snapshot(now), reference.snapshot(now));
            }
            // The run reached every placement arm, the refusal and the
            // zero-length executions.
            let stats = subject.stats();
            assert!(refused > 0, "no oversized batch in the run");
            assert!(instant > 100, "{instant} zero-length executions");
            assert!(stats.cold_starts > 50, "{stats:?}");
            assert!(stats.invocations - stats.cold_starts > 1_000, "{stats:?}");
            match cap {
                Some(cap) => {
                    assert_eq!(stats.peak_instances, cap, "never reached the cap");
                    assert!(queued > 50, "{queued} batches queued at the cap");
                }
                None => assert!(stats.peak_instances > 2 * 8, "{stats:?}"),
            }
        }
    }

    #[test]
    fn the_idle_set_takes_the_kth_position_in_order() {
        let rng = DetRng::new(5).fork("idle-set");
        let word = |i: u64| rng.derive_seed("word", i);
        for i in 0..500 {
            // Dense, sparse and the edge words.
            let w = match i {
                0 => u64::MAX,
                1 => 1,
                2 => 1 << 63,
                _ if i % 2 == 0 => word(i),
                _ => word(i) & word(i + 1_000) & word(i + 2_000),
            };
            let ones: Vec<u32> = (0..64).filter(|&b| w >> b & 1 == 1).collect();
            for (k, &bit) in ones.iter().enumerate() {
                assert_eq!(select(w, k as u32), bit, "{w:#x}, k = {k}");
            }
        }

        let mut set = IdleSet::default();
        let mut oracle = Vec::new();
        for len in 1..=200 {
            set.grow(len);
            if word(len as u64).is_multiple_of(3) {
                set.insert(len - 1);
                oracle.push(len - 1);
            }
        }
        while !oracle.is_empty() {
            assert_eq!(set.len(), oracle.len());
            let k = word(oracle.len() as u64 + 9_000) as usize % oracle.len();
            assert_eq!(set.take_nth(k), oracle.remove(k));
        }
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn compute_factor_scales_execution_without_perturbing_draws() {
        let mut plain = platform();
        let mut browned = platform();
        browned.set_compute_factor(3.0);
        let a = submit_and_ack(&mut plain, req(2, 0)).unwrap();
        let b = submit_and_ack(&mut browned, req(2, 0)).unwrap();
        assert!(
            (b.execution.as_secs_f64() - 3.0 * a.execution.as_secs_f64()).abs() < 2e-6,
            "brownout must scale the same sampled draw"
        );
        // Restoring 1.0 restores the exact no-fault sequence.
        browned.set_compute_factor(1.0);
        let a2 = submit_and_ack(&mut plain, req(2, 10_000_000)).unwrap();
        let b2 = submit_and_ack(&mut browned, req(2, 10_000_000)).unwrap();
        assert_eq!(a2.execution, b2.execution);
    }

    #[test]
    fn evict_idle_forces_cold_starts_but_spares_busy_instances() {
        let mut p = platform();
        let first = submit_and_ack(&mut p, req(1, 0)).unwrap();
        // Warm and idle after completion: eviction reclaims it.
        let idle_at = first.finished + SimDuration::from_millis(1);
        assert_eq!(p.evict_idle(idle_at), 1);
        let second = submit_and_ack(&mut p, req(1, idle_at.as_micros())).unwrap();
        assert!(second.cold, "the warm pool was evicted");
        // A busy instance survives eviction mid-execution.
        let third = p.submit(req(1, second.finished.as_micros() + 1)).unwrap();
        assert_eq!(p.evict_idle(third.started + SimDuration::from_micros(1)), 0);
        assert!(p.complete(third.id));
    }

    #[test]
    fn live_instance_count_reflects_expiry() {
        let mut p = platform();
        let o = submit_and_ack(&mut p, req(1, 0)).unwrap();
        assert_eq!(p.snapshot(o.finished).live_instances, 1);
        let far = o.finished + p.keep_alive() + SimDuration::from_secs(5);
        assert_eq!(p.snapshot(far).live_instances, 0);
    }
}
