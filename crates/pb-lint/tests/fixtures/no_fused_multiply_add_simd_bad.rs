// Known-bad: the ways a SIMD twin can fuse without naming `mul_add`.
#[target_feature(enable = "avx2,fma")]
fn sweep_fused(out: &mut [f64], a: &[f64], c: f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o += c * x;
    }
}

#[target_feature(
    enable = "fma"
)]
fn lanes(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    let d = _mm256_fmadd_pd(a, b, c);
    _mm_fnmsub_sd(d, b, c)
}

fn main() {
    println!("cargo:rustc-flags=-C target-cpu=native");
}
