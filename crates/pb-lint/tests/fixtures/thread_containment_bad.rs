// Known-bad: thread creation outside the audited seam.
pub fn fan_out() -> i32 {
    let h = std::thread::spawn(|| 1 + 1);
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
    let b = std::thread::Builder::new();
    drop(b);
    h.join().unwrap_or(0)
}
