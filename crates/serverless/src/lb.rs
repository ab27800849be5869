//! Load balancing across warm instances.
//!
//! The paper fronts its functions with NGINX in its default (round-robin)
//! mode, so that is the one balancer the platform runs.

/// NGINX's default strategy: rotate through the idle warm instances.
#[derive(Debug, Default)]
pub struct RoundRobin {
    cursor: usize,
}

impl RoundRobin {
    /// Picks among `idle` instances: the position, counting the idle ones
    /// in id order from 0, of the one to use — `None` when there is none.
    /// The caller walks to it; no list of candidates is ever built.
    pub fn pick(&mut self, idle: usize) -> Option<usize> {
        if idle == 0 {
            return None;
        }
        let choice = self.cursor % idle;
        self.cursor = self.cursor.wrapping_add(1);
        Some(choice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.pick(3), Some(0));
        assert_eq!(rr.pick(3), Some(1));
        assert_eq!(rr.pick(3), Some(2));
        assert_eq!(rr.pick(3), Some(0));
        // The cursor is shared across pool sizes, as it was across slices.
        assert_eq!(rr.pick(2), Some(0));
        assert_eq!(rr.pick(2), Some(1));
    }

    #[test]
    fn round_robin_empty_is_none() {
        let mut rr = RoundRobin::default();
        assert_eq!(rr.pick(2), Some(0));
        assert_eq!(rr.pick(0), None);
        assert_eq!(rr.pick(2), Some(1), "an empty pool does not advance");
    }
}
