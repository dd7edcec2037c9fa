//! Procedural image rendering: coefficient vectors → RGB images.
//!
//! An image is a weighted sum of fixed sinusoidal basis patterns (a crude
//! Fourier dictionary). Two classes with nearby coefficient vectors render
//! into visually similar images, which is exactly the confusability knob the
//! synthetic datasets need.

/// A fixed dictionary of 2-D sinusoidal basis patterns over 3 channels.
#[derive(Debug, Clone)]
pub(crate) struct PatternDictionary {
    hw: usize,
    /// Per basis function: (fx, fy, phase offset per channel step).
    bases: Vec<(f32, f32, f32)>,
}

impl PatternDictionary {
    /// Creates a dictionary of `dim` basis patterns for `hw × hw` images.
    ///
    /// Frequencies sweep low→high so early coefficients control coarse
    /// structure and later ones fine texture.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `hw == 0`.
    pub(crate) fn new(dim: usize, hw: usize) -> Self {
        assert!(dim > 0 && hw > 0, "pattern dictionary needs dim > 0 and hw > 0");
        let mut bases = Vec::with_capacity(dim);
        for d in 0..dim {
            // Deterministic low-discrepancy-ish sweep of orientation and
            // frequency; golden-angle increments avoid axis alignment.
            let angle = d as f32 * 2.399_963; // golden angle in radians
            let freq = 0.5 + 2.5 * (d as f32 / dim as f32);
            let fx = freq * angle.cos();
            let fy = freq * angle.sin();
            let phase = d as f32 * 1.046;
            bases.push((fx, fy, phase));
        }
        PatternDictionary { hw, bases }
    }

    /// Number of basis patterns (coefficient dimension).
    pub(crate) fn dim(&self) -> usize {
        self.bases.len()
    }

    /// Renders a coefficient vector into a `[3, hw, hw]` image buffer
    /// (values roughly in `[-1, 1]` for unit-norm coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != self.dim()`.
    pub(crate) fn render(&self, coeffs: &[f32]) -> Vec<f32> {
        assert_eq!(coeffs.len(), self.dim(), "expected {} coefficients, got {}", self.dim(), coeffs.len());
        let hw = self.hw;
        let mut img = vec![0.0f32; 3 * hw * hw];
        let scale = 1.0 / (self.dim() as f32).sqrt();
        for (d, &(fx, fy, phase)) in self.bases.iter().enumerate() {
            let c = coeffs[d] * scale;
            if c == 0.0 {
                continue;
            }
            for ch in 0..3usize {
                let ch_phase = phase + ch as f32 * 2.094; // 2π/3 per channel
                let plane = &mut img[ch * hw * hw..(ch + 1) * hw * hw];
                for y in 0..hw {
                    let ty = fy * (y as f32 / hw as f32) * std::f32::consts::TAU;
                    for x in 0..hw {
                        let tx = fx * (x as f32 / hw as f32) * std::f32::consts::TAU;
                        plane[y * hw + x] += c * (tx + ty + ch_phase).sin();
                    }
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_has_expected_shape_and_scale() {
        let dict = PatternDictionary::new(8, 16);
        let coeffs = vec![1.0; 8];
        let img = dict.render(&coeffs);
        assert_eq!(img.len(), 3 * 16 * 16);
        let max = img.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(max > 0.1 && max < 4.0, "max magnitude {max}");
    }

    #[test]
    fn rendering_is_linear_in_coefficients() {
        let dict = PatternDictionary::new(6, 8);
        let a = vec![1.0, 0.0, 0.5, 0.0, -1.0, 0.25];
        let b = vec![0.0, 2.0, -0.5, 1.0, 0.5, 0.0];
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let ra = dict.render(&a);
        let rb = dict.render(&b);
        let rsum = dict.render(&sum);
        for i in 0..ra.len() {
            assert!((ra[i] + rb[i] - rsum[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn nearby_coefficients_render_nearby_images() {
        let dict = PatternDictionary::new(8, 8);
        let a = vec![1.0, -0.5, 0.3, 0.8, -0.2, 0.1, 0.6, -0.9];
        let mut b = a.clone();
        b[0] += 0.01;
        let far: Vec<f32> = a.iter().map(|v| -v).collect();
        let d_near: f32 = dict.render(&a).iter().zip(dict.render(&b).iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        let d_far: f32 =
            dict.render(&a).iter().zip(dict.render(&far).iter()).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!(d_near < d_far / 100.0, "near {d_near} vs far {d_far}");
    }

    #[test]
    fn distinct_bases_produce_distinct_images() {
        let dict = PatternDictionary::new(4, 8);
        let mut e0 = vec![0.0; 4];
        e0[0] = 1.0;
        let mut e1 = vec![0.0; 4];
        e1[1] = 1.0;
        let r0 = dict.render(&e0);
        let r1 = dict.render(&e1);
        let diff: f32 = r0.iter().zip(&r1).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(diff > 0.01, "basis images too similar: {diff}");
    }
}
