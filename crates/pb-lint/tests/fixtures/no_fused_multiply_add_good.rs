// Known-good: the two-rounding form, an annotated exception, look-alike
// identifiers, and mentions in comments/strings must never fire.
pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
    // A fold with x.mul_add(y, acc) would round once per step.
    xs.iter().zip(ys).fold(0.0, |acc, (x, y)| acc + x * y)
}

pub fn simd_mul_add(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

pub fn reporting_only(a: f64, b: f64, c: f64) -> f64 {
    // pb-lint: allow(no-fused-multiply-add) — feeds a log line, never a
    // comparison or a stored result.
    a.mul_add(b, c)
}

pub const DOC: &str = "a.mul_add(b, c) in a string";
