//! Deterministic discrete-event simulation kernel.
//!
//! Everything in the Tangram reproduction runs on simulated time so that a
//! `(configuration, seed)` pair reproduces an experiment bit-for-bit:
//!
//! * [`event::EventQueue`] — a time-ordered queue with stable FIFO
//!   tie-breaking, the heart of the end-to-end engine, which pops it
//!   directly and keeps "now" beside it. One producer whose instants
//!   never decrease (the engine's FIFO uplink) pushes with
//!   [`EventQueue::push`] and rides an O(1) lane; every other event goes
//!   to the heap with [`EventQueue::push_unordered`];
//! * [`clock`] — the [`clock::Clock`] abstraction of the live runtime;
//! * [`rng::DetRng`] — seeded, forkable random streams with the handful of
//!   distributions the substrates need (normal, lognormal, Poisson,
//!   exponential) implemented locally so no extra crates are required;
//! * [`stats`] — online statistics and empirical CDFs used by
//!   every experiment to report exactly the series the paper plots.
//!
//! # Example
//!
//! ```
//! use tangram_sim::event::EventQueue;
//! use tangram_types::time::SimTime;
//!
//! let mut q = EventQueue::new();
//! // A wake-up far ahead goes to the heap and leaves the lane free...
//! q.push_unordered(SimTime::from_micros(1_000), "wake-up");
//! // ...for a producer whose instants never decrease.
//! q.push(SimTime::from_micros(10), "first");
//! q.push(SimTime::from_micros(20), "second");
//! assert_eq!(q.pop(), Some((SimTime::from_micros(10), "first")));
//! assert_eq!(q.pop(), Some((SimTime::from_micros(20), "second")));
//! assert_eq!(q.pop(), Some((SimTime::from_micros(1_000), "wake-up")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod clock;
pub mod event;
pub mod rng;
pub mod stats;

pub use clock::{Clock, ManualClock};
pub use event::EventQueue;
pub use rng::DetRng;
pub use stats::{EmpiricalCdf, OnlineStats};
