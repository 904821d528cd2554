//! The [`Recorder`] trait, the always-off [`NoopRecorder`], and the
//! cloneable [`SharedRecorder`] handle that instrumented structs embed.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Sink for measurements emitted by instrumented code.
///
/// Implementations must be cheap and non-blocking: hot loops call these
/// methods per row chunk or per request. Code that would pay a real cost
/// just to *produce* a value (reading the clock, computing a mean)
/// should gate on [`Recorder::enabled`] first.
pub trait Recorder: Send + Sync {
    /// Whether measurements are being kept. `false` lets call sites skip
    /// expensive value production entirely (the no-op contract).
    fn enabled(&self) -> bool {
        true
    }

    /// Add `delta` to the monotonic counter named `key`.
    fn add(&self, key: &str, delta: u64);

    /// Set the gauge named `key` to `value` (last write wins).
    fn set(&self, key: &str, value: f64);

    /// Record one sample of `value` into the histogram named `key`.
    fn observe(&self, key: &str, value: f64);

    /// Record every sample of `values`, in order, into the histogram named
    /// `key`. Implementations that look `key` up per call should bind it
    /// once here.
    fn observe_many(&self, key: &str, values: &[f64]) {
        for &value in values {
            self.observe(key, value);
        }
    }
}

/// Recorder that drops every measurement and reports `enabled() == false`.
///
/// This is the default wired through the stack: an uninstrumented run
/// pays only a virtual call on cold paths and a single branch on hot
/// ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, _key: &str, _delta: u64) {}

    fn set(&self, _key: &str, _value: f64) {}

    fn observe(&self, _key: &str, _value: f64) {}
}

/// Cloneable, type-erased recorder handle.
///
/// Structs that derive `Debug`/`Clone` (builders, streaming state)
/// cannot hold a bare `Arc<dyn Recorder>`; this newtype supplies the
/// missing impls and defaults to the shared no-op instance, so embedding
/// one costs a single `Arc` clone and no allocation.
#[derive(Clone)]
pub struct SharedRecorder(Arc<dyn Recorder>);

impl SharedRecorder {
    /// Wrap an owned recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        SharedRecorder(recorder)
    }

    /// The process-wide no-op recorder (no allocation after first use).
    pub fn noop() -> Self {
        static NOOP: OnceLock<Arc<NoopRecorder>> = OnceLock::new();
        let arc = NOOP.get_or_init(|| Arc::new(NoopRecorder)).clone();
        SharedRecorder(arc)
    }
}

impl Recorder for SharedRecorder {
    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn add(&self, key: &str, delta: u64) {
        self.0.add(key, delta);
    }

    fn set(&self, key: &str, value: f64) {
        self.0.set(key, value);
    }

    fn observe(&self, key: &str, value: f64) {
        self.0.observe(key, value);
    }

    fn observe_many(&self, key: &str, values: &[f64]) {
        self.0.observe_many(key, values);
    }
}

impl Default for SharedRecorder {
    fn default() -> Self {
        SharedRecorder::noop()
    }
}

impl fmt::Debug for SharedRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedRecorder").field("enabled", &self.0.enabled()).finish()
    }
}

impl Deref for SharedRecorder {
    type Target = dyn Recorder;

    fn deref(&self) -> &(dyn Recorder + 'static) {
        &*self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.add("k", 1);
        rec.set("k", 1.0);
        rec.observe("k", 1.0);
        rec.observe_many("k", &[1.0, 2.0]);
    }

    #[test]
    fn shared_defaults_to_noop_and_is_cheap_to_clone() {
        let rec = SharedRecorder::default();
        assert!(!rec.enabled());
        let clone = rec.clone();
        assert!(!clone.enabled());
        assert_eq!(format!("{rec:?}"), "SharedRecorder { enabled: false }");
    }
}
