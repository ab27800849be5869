//! Function specifications and the GPU-memory batch bound.

use tangram_types::units::GigaBytes;

/// Resources allocated to one function instance.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// vCPUs (`n_C` in Eqn. 1).
    pub vcpus: f64,
    /// Memory (`m_M`).
    pub memory_gb: GigaBytes,
    /// GPU memory (`m_G`).
    pub gpu_gb: GigaBytes,
    /// Resident model footprint `τ` (constraint (5)).
    pub model_footprint_gb: GigaBytes,
    /// GPU memory per 1024×1024 canvas in the batch, `w` (activations +
    /// input tensor).
    pub canvas_gb: GigaBytes,
    /// Concurrent requests per instance (the paper sets 1).
    pub concurrency: u32,
}

impl FunctionSpec {
    /// The paper's evaluation configuration: 2 vCPU, 4 GB memory, 6 GB GPU
    /// memory, concurrency 1. `τ` and `w` are calibrated so roughly ten
    /// canvases fit one instance — matching Fig. 14d, where batches top
    /// out around 9 canvases.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            vcpus: 2.0,
            memory_gb: GigaBytes::new(4.0),
            gpu_gb: GigaBytes::new(6.0),
            model_footprint_gb: GigaBytes::new(2.6),
            canvas_gb: GigaBytes::new(0.36),
            concurrency: 1,
        }
    }

    /// Maximum canvases per batch under constraint (5):
    /// `w·Σy + τ ≤ m_G`.
    #[must_use]
    pub fn max_canvases(&self) -> usize {
        let free = self.gpu_gb.get() - self.model_footprint_gb.get();
        if free <= 0.0 || self.canvas_gb.get() <= 0.0 {
            return 0;
        }
        (free / self.canvas_gb.get()).floor() as usize
    }
}

impl Default for FunctionSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let s = FunctionSpec::paper_default();
        assert_eq!(s.vcpus, 2.0);
        assert_eq!(s.memory_gb, GigaBytes::new(4.0));
        assert_eq!(s.gpu_gb, GigaBytes::new(6.0));
        assert_eq!(s.concurrency, 1);
    }

    #[test]
    fn max_canvases_matches_fig14d() {
        // (6 − 2.6) / 0.36 = 9.44 → 9 canvases, the largest batch Fig. 14d
        // reports.
        assert_eq!(FunctionSpec::paper_default().max_canvases(), 9);
    }

    #[test]
    fn degenerate_specs_hold_nothing() {
        let mut s = FunctionSpec::paper_default();
        s.model_footprint_gb = GigaBytes::new(7.0); // bigger than the GPU
        assert_eq!(s.max_canvases(), 0);
    }
}
