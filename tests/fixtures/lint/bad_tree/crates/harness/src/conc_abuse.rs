//! Concurrency-discipline abuse: one pinned unwaived spawn.

pub fn abuse() {
    std::thread::spawn(|| ());
}
