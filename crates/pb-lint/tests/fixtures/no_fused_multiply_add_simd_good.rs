// Known-good: AVX2 without FMA, reading the feature, separate multiply and
// add intrinsics, and mentions in comments and strings must never fire.
#[target_feature(enable = "avx2")]
fn sweep(out: &mut [f64], a: &[f64], c: f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o += c * x;
    }
}

#[cfg(target_feature = "fma")]
const HOST_FUSES: bool = true;

fn detect() -> bool {
    std::arch::is_x86_feature_detected!("fma")
}

fn lanes(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    // Not _mm256_fmadd_pd(a, b, c): that rounds once.
    _mm256_add_pd(_mm256_mul_pd(a, b), c)
}

pub const DOC: &str = "enable = \"fma\" or -C target_cpu via _mm256_fmadd_pd";
