//! Load balancing across warm instances.
//!
//! The paper fronts its functions with NGINX in its default (round-robin)
//! mode, so that is the one balancer the platform runs.

use tangram_types::ids::InstanceId;

/// NGINX's default strategy: rotate through the idle warm instances.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Picks from `idle` (sorted by id, possibly empty).
    pub fn pick(&mut self, idle: &[InstanceId]) -> Option<InstanceId> {
        if idle.is_empty() {
            return None;
        }
        let choice = idle[self.cursor % idle.len()];
        self.cursor = self.cursor.wrapping_add(1);
        Some(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<InstanceId> {
        raw.iter().map(|&r| InstanceId::new(r)).collect()
    }

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        let idle = ids(&[0, 1, 2]);
        assert_eq!(rr.pick(&idle), Some(InstanceId::new(0)));
        assert_eq!(rr.pick(&idle), Some(InstanceId::new(1)));
        assert_eq!(rr.pick(&idle), Some(InstanceId::new(2)));
        assert_eq!(rr.pick(&idle), Some(InstanceId::new(0)));
    }

    #[test]
    fn round_robin_empty_is_none() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.pick(&[]), None);
    }
}
