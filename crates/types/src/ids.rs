//! Strongly-typed identifiers for every entity in the system.
//!
//! Newtypes prevent, e.g., a `FrameId` from being used where a `PatchId` is
//! expected (C-NEWTYPE). All ids are cheap `Copy` integers with sequential
//! allocation helpers.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Wraps a raw integer id.
            #[must_use]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// The raw integer value.
            #[must_use]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Returns the current id and advances `self` to the next one —
            /// a tiny allocator for sequential ids.
            pub fn bump(&mut self) -> Self {
                let current = *self;
                self.0 += 1;
                current
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// An edge camera (one per video source).
    CameraId, u32, "cam-"
);
define_id!(
    /// A frame within a camera's stream.
    FrameId, u64, "frame-"
);
define_id!(
    /// A patch cut from a frame by the adaptive partitioning algorithm.
    PatchId, u64, "patch-"
);
define_id!(
    /// A canvas assembled by the patch-stitching solver.
    CanvasId, u64, "canvas-"
);
define_id!(
    /// A batch of canvases dispatched in one serverless invocation.
    BatchId, u64, "batch-"
);
define_id!(
    /// One serverless function invocation.
    InvocationId, u64, "invoke-"
);
define_id!(
    /// A serverless function instance (container).
    InstanceId, u32, "inst-"
);

/// One of the ten PANDA-style evaluation scenes (1-based, matching the
/// paper's `scene_01`..`scene_10`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SceneId(u8);

impl SceneId {
    /// Number of scenes in the PANDA4K evaluation set.
    pub const COUNT: u8 = 10;

    /// Creates a scene id; `index` must be in `1..=10`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is outside `1..=10`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (1..=Self::COUNT).contains(&index),
            "scene index {index} outside 1..=10"
        );
        Self(index)
    }

    /// 1-based index as used by the paper's scene names.
    #[must_use]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// 0-based index for array lookups.
    #[must_use]
    pub const fn array_index(self) -> usize {
        (self.0 - 1) as usize
    }

    /// Iterates over all ten scenes in order.
    pub fn all() -> impl Iterator<Item = SceneId> {
        (1..=Self::COUNT).map(SceneId)
    }
}

impl Default for SceneId {
    fn default() -> Self {
        SceneId(1)
    }
}

impl fmt::Display for SceneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scene_{:02}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_sequentially() {
        let mut next = PatchId::default();
        assert_eq!(next.bump(), PatchId::new(0));
        assert_eq!(next.bump(), PatchId::new(1));
        assert_eq!(next, PatchId::new(2));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(CameraId::new(3).to_string(), "cam-3");
        assert_eq!(BatchId::new(12).to_string(), "batch-12");
    }

    #[test]
    fn scene_id_formats_like_paper() {
        assert_eq!(SceneId::new(1).to_string(), "scene_01");
        assert_eq!(SceneId::new(10).to_string(), "scene_10");
    }

    #[test]
    fn scene_all_is_ten_scenes() {
        let all: Vec<_> = SceneId::all().collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].index(), 1);
        assert_eq!(all[9].array_index(), 9);
    }

    #[test]
    #[should_panic(expected = "outside 1..=10")]
    fn scene_id_rejects_zero() {
        let _ = SceneId::new(0);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(FrameId::new(1) < FrameId::new(2));
    }
}
