// Known-bad: fused multiply-adds the rule must catch, in both call forms.
pub fn dot(xs: &[f64], ys: &[f64]) -> f64 {
    xs.iter().zip(ys).fold(0.0, |acc, (x, y)| x.mul_add(*y, acc))
}

pub fn axpy(a: f64, x: f64, y: f64) -> f64 {
    f64::mul_add(a, x, y)
}
