//! The Alibaba Function Compute billing model (Eqn. 1).

use tangram_types::time::SimDuration;
use tangram_types::units::Dollars;

use crate::function::FunctionSpec;

/// Unit prices of the serverless platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourcePrices {
    /// `P_C`: dollars per vCPU-second.
    pub per_vcpu_second: f64,
    /// `P_M`: dollars per GB-second of memory.
    pub per_mem_gb_second: f64,
    /// `P_G`: dollars per GB-second of GPU memory.
    pub per_gpu_gb_second: f64,
    /// `P_req`: base cost per invocation.
    pub per_request: f64,
    /// Billing granularity: execution time is rounded *up* to a multiple
    /// of this unit (`1 ms` matches FC's current billing; Eqn. 1 itself
    /// is granularity-free).
    pub billing_unit: SimDuration,
}

impl ResourcePrices {
    /// The paper's published Alibaba Cloud Function Compute prices:
    /// `P_C = 2.138e-5 $/vCPU·s`, `P_M = 2.138e-5 $/GB·s`,
    /// `P_G = 1.05e-4 $/GB·s`, `P_req = 2e-7 $`.
    #[must_use]
    pub fn alibaba_fc() -> Self {
        Self {
            per_vcpu_second: 2.138e-5,
            per_mem_gb_second: 2.138e-5,
            per_gpu_gb_second: 1.05e-4,
            per_request: 2.0e-7,
            billing_unit: SimDuration::from_millis(1),
        }
    }

    /// Dollars per second of execution for a given function spec
    /// (the parenthesised factor of Eqn. 1).
    #[must_use]
    pub fn rate_per_second(&self, spec: &FunctionSpec) -> f64 {
        spec.vcpus * self.per_vcpu_second
            + spec.memory_gb.get() * self.per_mem_gb_second
            + spec.gpu_gb.get() * self.per_gpu_gb_second
    }

    /// Billed duration: execution rounded up to the billing unit.
    #[must_use]
    pub fn billed_duration(&self, execution: SimDuration) -> SimDuration {
        let unit = self.billing_unit.as_micros();
        if unit == 0 {
            return execution;
        }
        let micros = execution.as_micros();
        SimDuration::from_micros(micros.div_ceil(unit) * unit)
    }

    /// Full cost of one invocation (Eqn. 1).
    #[must_use]
    pub fn invocation_cost(&self, execution: SimDuration, spec: &FunctionSpec) -> Dollars {
        let billed = self.billed_duration(execution).as_secs_f64();
        Dollars::new(billed * self.rate_per_second(spec) + self.per_request)
    }
}

impl Default for ResourcePrices {
    fn default() -> Self {
        Self::alibaba_fc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_for_default_spec() {
        // 2 vCPU, 4 GB memory, 6 GB GPU:
        // 2·2.138e-5 + 4·2.138e-5 + 6·1.05e-4 = 7.583e-4 $/s.
        let prices = ResourcePrices::alibaba_fc();
        let spec = FunctionSpec::paper_default();
        let rate = prices.rate_per_second(&spec);
        assert!((rate - 7.5828e-4).abs() < 1e-8, "rate {rate}");
    }

    #[test]
    fn one_second_invocation_cost() {
        let prices = ResourcePrices::alibaba_fc();
        let spec = FunctionSpec::paper_default();
        let cost = prices.invocation_cost(SimDuration::from_secs(1), &spec);
        assert!((cost.get() - (7.5828e-4 + 2e-7)).abs() < 1e-8);
    }

    #[test]
    fn billing_rounds_up() {
        let prices = ResourcePrices::alibaba_fc();
        assert_eq!(
            prices.billed_duration(SimDuration::from_micros(1_500)),
            SimDuration::from_millis(2)
        );
        assert_eq!(
            prices.billed_duration(SimDuration::from_millis(3)),
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn per_request_charged_even_for_instant_functions() {
        let prices = ResourcePrices::alibaba_fc();
        let spec = FunctionSpec::paper_default();
        let cost = prices.invocation_cost(SimDuration::ZERO, &spec);
        assert!((cost.get() - 2e-7).abs() < 1e-15);
    }

    #[test]
    fn coarser_billing_costs_more() {
        let spec = FunctionSpec::paper_default();
        let fine = ResourcePrices::alibaba_fc();
        let mut coarse = ResourcePrices::alibaba_fc();
        coarse.billing_unit = SimDuration::from_secs(1);
        let exec = SimDuration::from_millis(250);
        assert!(coarse.invocation_cost(exec, &spec) > fine.invocation_cost(exec, &spec));
    }
}
