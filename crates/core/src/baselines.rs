//! Prior-work baseline policies: DLS and CBCS.
//!
//! The paper compares HEBS against two earlier backlight-scaling approaches:
//!
//! * **DLS** (Chang, Choi, Shim — reference \[4\]): dim the backlight and
//!   compensate every pixel with either the *brightness compensation*
//!   `Φ(x,β) = min(1, x + 1 − β)` or the *contrast enhancement*
//!   `Φ(x,β) = min(1, x/β)` function; distortion comes from the pixels that
//!   saturate.
//! * **CBCS** (Cheng, Pedram — reference \[5\]): pick one band `[g_l, g_u]` of
//!   the histogram, clamp everything outside it and spread the band over the
//!   full grayscale range with the conventional reference driver; the
//!   backlight is dimmed to the band width.
//!
//! Both are implemented against the same display models and the same
//! distortion measure as HEBS so the comparison benchmark is apples to
//! apples.

use hebs_display::plrd::ConventionalPlrd;
use hebs_display::LcdSubsystem;
use hebs_imaging::{GrayImage, Histogram};
use hebs_quality::{DistortionMeasure, HebsDistortion};
use hebs_transform::{
    BrightnessCompensation, ContrastEnhancement, LookupTable, PixelTransform, SingleBandSpreading,
};

use crate::error::{HebsError, Result};
use crate::policy::{BacklightPolicy, ScalingOutcome};

/// Which of the two DLS pixel-compensation functions to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlsVariant {
    /// `Φ(x,β) = min(1, x + 1 − β)` (Figure 2b of the paper).
    BrightnessCompensation,
    /// `Φ(x,β) = min(1, x/β)` (Figure 2c of the paper).
    ContrastEnhancement,
}

impl DlsVariant {
    fn name(self) -> &'static str {
        match self {
            DlsVariant::BrightnessCompensation => "dls-brightness",
            DlsVariant::ContrastEnhancement => "dls-contrast",
        }
    }

    fn lut_for(self, beta: f64) -> Result<LookupTable> {
        let lut = match self {
            DlsVariant::BrightnessCompensation => BrightnessCompensation::new(beta)?.to_lut(),
            DlsVariant::ContrastEnhancement => ContrastEnhancement::new(beta)?.to_lut(),
        };
        Ok(lut)
    }
}

/// The DLS baseline policy of reference \[4\].
#[derive(Debug, Clone)]
pub struct DlsPolicy {
    variant: DlsVariant,
    subsystem: LcdSubsystem,
    measure: HebsDistortion,
    /// Granularity of the backlight search grid.
    beta_steps: usize,
}

impl DlsPolicy {
    /// Creates the policy with the default LP064V1 display and the paper's
    /// distortion measure.
    pub fn new(variant: DlsVariant) -> Self {
        DlsPolicy {
            variant,
            subsystem: LcdSubsystem::lp064v1(),
            measure: HebsDistortion::default(),
            beta_steps: 64,
        }
    }

    /// Replaces the display model (used by ablations).
    pub fn with_subsystem(mut self, subsystem: LcdSubsystem) -> Self {
        self.subsystem = subsystem;
        self
    }

    /// Replaces the distortion measure (used by ablations).
    pub fn with_measure(mut self, measure: HebsDistortion) -> Self {
        self.measure = measure;
        self
    }

    fn evaluate(&self, image: &GrayImage, beta: f64) -> Result<ScalingOutcome> {
        let lut = self.variant.lut_for(beta)?;
        let drive = lut.apply(image);
        let displayed = self.subsystem.displayed_image(&drive, beta)?;
        let distortion = self.measure.distortion(image, &displayed);
        let power = self.subsystem.power(&drive, beta)?;
        let power_saving = self.subsystem.power_saving(image, &drive, beta)?;
        Ok(ScalingOutcome {
            policy: self.variant.name().to_string(),
            beta,
            dynamic_range: None,
            distortion,
            power,
            power_saving,
            lut,
            displayed,
            fit_evaluations: 1,
            coarsenings: 0,
        })
    }
}

impl BacklightPolicy for DlsPolicy {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn optimize(&self, image: &GrayImage, max_distortion: f64) -> Result<ScalingOutcome> {
        check_budget(max_distortion)?;
        // Distortion grows as β shrinks; walk the grid from dim to bright and
        // return the dimmest feasible setting.
        let mut best: Option<ScalingOutcome> = None;
        let mut evaluations = 0u32;
        for step in 1..=self.beta_steps {
            let beta = step as f64 / self.beta_steps as f64;
            let outcome = self.evaluate(image, beta)?;
            evaluations += 1;
            if outcome.distortion <= max_distortion {
                best = Some(outcome);
                break;
            }
        }
        match best {
            Some(mut outcome) => {
                outcome.fit_evaluations = evaluations;
                Ok(outcome)
            }
            // Nothing feasible: fall back to full backlight (zero saving).
            None => {
                let mut outcome = self.evaluate(image, 1.0)?;
                outcome.fit_evaluations = evaluations + 1;
                Ok(outcome)
            }
        }
    }
}

/// The CBCS (concurrent brightness/contrast scaling) baseline policy of
/// reference \[5\].
#[derive(Debug, Clone)]
pub struct CbcsPolicy {
    subsystem: LcdSubsystem,
    measure: HebsDistortion,
    driver: ConventionalPlrd,
    /// Candidate fractions of pixels allowed to be clipped outside the band.
    clip_fractions: Vec<f64>,
}

impl Default for CbcsPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CbcsPolicy {
    /// Creates the policy with the default LP064V1 display, the conventional
    /// 10-tap reference driver and the paper's distortion measure.
    pub fn new() -> Self {
        CbcsPolicy {
            subsystem: LcdSubsystem::lp064v1(),
            measure: HebsDistortion::default(),
            driver: ConventionalPlrd::default(),
            clip_fractions: vec![0.0, 0.01, 0.02, 0.05, 0.08, 0.12, 0.16, 0.22, 0.30, 0.40],
        }
    }

    /// Replaces the display model (used by ablations).
    pub fn with_subsystem(mut self, subsystem: LcdSubsystem) -> Self {
        self.subsystem = subsystem;
        self
    }

    /// Replaces the distortion measure (used by ablations).
    pub fn with_measure(mut self, measure: HebsDistortion) -> Self {
        self.measure = measure;
        self
    }

    /// The shortest level band `[g_l, g_u]` containing at least
    /// `1 − clip_fraction` of the pixels, found with a two-pointer sweep over
    /// the cumulative histogram.
    fn shortest_band(histogram: &Histogram, clip_fraction: f64) -> (u8, u8) {
        let total = histogram.total();
        if total == 0 {
            return (0, 255);
        }
        let needed = ((1.0 - clip_fraction) * total as f64).ceil() as u64;
        let needed = needed.clamp(1, total);
        let cumulative = histogram.cumulative();
        let mut best: (u8, u8) = (0, 255);
        let mut best_width = 256u32;
        let mut lo = 0usize;
        for hi in 0..256usize {
            // Pixels inside [lo, hi].
            loop {
                let below_lo = if lo == 0 {
                    0
                } else {
                    cumulative.up_to((lo - 1) as u8)
                };
                let inside = cumulative.up_to(hi as u8) - below_lo;
                if inside < needed {
                    break;
                }
                let width = (hi - lo + 1) as u32;
                if width < best_width {
                    best_width = width;
                    best = (lo as u8, hi as u8);
                }
                lo += 1;
                if lo > hi {
                    break;
                }
            }
        }
        best
    }

    fn evaluate(&self, image: &GrayImage, band: (u8, u8)) -> Result<ScalingOutcome> {
        let (g_l, g_u) = band;
        let lower = f64::from(g_l) / 255.0;
        let upper = (f64::from(g_u) / 255.0).max(lower + 1.0 / 255.0);
        // The backlight only needs to reach the band width: displayed
        // luminance of the band top is then g_u − g_l, preserving in-band
        // contrast exactly (the CBCS design point).
        let beta = (upper - lower).clamp(1.0 / 255.0, 1.0);
        let spreading = SingleBandSpreading::new(lower, upper.min(1.0), beta)?;
        let programmed = self.driver.program(&spreading)?;
        let drive = programmed.lut.apply(image);
        let displayed = self.subsystem.displayed_image(&drive, beta)?;
        let distortion = self.measure.distortion(image, &displayed);
        let power = self.subsystem.power(&drive, beta)?;
        let power_saving = self.subsystem.power_saving(image, &drive, beta)?;
        Ok(ScalingOutcome {
            policy: "cbcs".to_string(),
            beta,
            dynamic_range: Some(u32::from(g_u) - u32::from(g_l) + 1),
            distortion,
            power,
            power_saving,
            lut: programmed.lut,
            displayed,
            fit_evaluations: 1,
            coarsenings: 0,
        })
    }
}

impl BacklightPolicy for CbcsPolicy {
    fn name(&self) -> &str {
        "cbcs"
    }

    fn optimize(&self, image: &GrayImage, max_distortion: f64) -> Result<ScalingOutcome> {
        check_budget(max_distortion)?;
        let histogram = Histogram::of(image);
        let mut best: Option<ScalingOutcome> = None;
        let mut evaluations = 0u32;
        for &clip in &self.clip_fractions {
            let band = Self::shortest_band(&histogram, clip);
            let outcome = self.evaluate(image, band)?;
            evaluations += 1;
            if outcome.distortion > max_distortion {
                continue;
            }
            let better = match &best {
                None => true,
                Some(current) => outcome.power_saving > current.power_saving,
            };
            if better {
                best = Some(outcome);
            }
        }
        match best {
            Some(mut outcome) => {
                outcome.fit_evaluations = evaluations;
                Ok(outcome)
            }
            // Nothing feasible: keep the full range at full backlight.
            None => {
                let mut outcome = self.evaluate(image, (0, 255))?;
                outcome.fit_evaluations = evaluations + 1;
                Ok(outcome)
            }
        }
    }
}

fn check_budget(max_distortion: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&max_distortion) || !max_distortion.is_finite() {
        return Err(HebsError::InvalidFraction {
            name: "max_distortion",
            value: max_distortion,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hebs_imaging::synthetic;

    fn test_image() -> GrayImage {
        synthetic::still_life(64, 64, 51)
    }

    #[test]
    fn dls_respects_the_distortion_bound() {
        for variant in [
            DlsVariant::ContrastEnhancement,
            DlsVariant::BrightnessCompensation,
        ] {
            let policy = DlsPolicy::new(variant);
            let outcome = policy.optimize(&test_image(), 0.10).unwrap();
            assert!(
                outcome.distortion <= 0.10 + 1e-9,
                "{}: {}",
                policy.name(),
                outcome.distortion
            );
            assert!(outcome.beta > 0.0 && outcome.beta <= 1.0);
        }
    }

    #[test]
    fn dls_contrast_enhancement_saves_power_at_moderate_budgets() {
        let policy = DlsPolicy::new(DlsVariant::ContrastEnhancement);
        let outcome = policy.optimize(&test_image(), 0.10).unwrap();
        assert!(outcome.power_saving > 0.0);
        assert_eq!(outcome.policy, "dls-contrast");
        assert!(outcome.dynamic_range.is_none());
    }

    #[test]
    fn dls_with_zero_budget_falls_back_to_full_backlight() {
        let policy = DlsPolicy::new(DlsVariant::ContrastEnhancement);
        let outcome = policy.optimize(&test_image(), 0.0).unwrap();
        // Either a genuinely distortion-free dimming or the identity
        // fallback; in both cases the bound may not be exceeded by much more
        // than numerical noise, and β must be near 1 for a busy image.
        assert!(outcome.beta > 0.9);
    }

    #[test]
    fn dls_larger_budget_never_saves_less() {
        let policy = DlsPolicy::new(DlsVariant::ContrastEnhancement);
        let img = test_image();
        let tight = policy.optimize(&img, 0.05).unwrap();
        let loose = policy.optimize(&img, 0.20).unwrap();
        assert!(loose.power_saving + 1e-9 >= tight.power_saving);
    }

    #[test]
    fn dls_invalid_budget_rejected() {
        let policy = DlsPolicy::new(DlsVariant::BrightnessCompensation);
        assert!(policy.optimize(&test_image(), -0.5).is_err());
        assert!(policy.optimize(&test_image(), 2.0).is_err());
    }

    #[test]
    fn cbcs_shortest_band_contains_requested_mass() {
        let img = synthetic::portrait(64, 64, 52);
        let hist = Histogram::of(&img);
        let (lo, hi) = CbcsPolicy::shortest_band(&hist, 0.10);
        let cumulative = hist.cumulative();
        let below = if lo == 0 { 0 } else { cumulative.up_to(lo - 1) };
        let inside = cumulative.up_to(hi) - below;
        assert!(inside as f64 >= 0.90 * hist.total() as f64);
        assert!(hi >= lo);
    }

    #[test]
    fn cbcs_shortest_band_of_constant_image_is_narrow() {
        let img = GrayImage::filled(16, 16, 100);
        let hist = Histogram::of(&img);
        let (lo, hi) = CbcsPolicy::shortest_band(&hist, 0.0);
        assert_eq!(lo, 100);
        assert_eq!(hi, 100);
    }

    #[test]
    fn cbcs_respects_the_distortion_bound() {
        let policy = CbcsPolicy::new();
        let outcome = policy.optimize(&test_image(), 0.10).unwrap();
        // Either feasible under the bound or the explicit full-range
        // fallback.
        if outcome.beta < 0.999 {
            assert!(outcome.distortion <= 0.10 + 1e-9);
        }
        assert_eq!(outcome.policy, "cbcs");
    }

    #[test]
    fn cbcs_saves_power_on_narrow_histogram_images() {
        // A low-key image concentrates its histogram, which is CBCS's best
        // case: a narrow band captures almost all pixels.
        let img = synthetic::low_key(64, 64, 53);
        let policy = CbcsPolicy::new();
        let outcome = policy.optimize(&img, 0.15).unwrap();
        assert!(
            outcome.power_saving > 0.2,
            "expected CBCS to save power on a low-key image, got {}",
            outcome.power_saving
        );
    }

    #[test]
    fn cbcs_larger_budget_never_saves_less() {
        let policy = CbcsPolicy::new();
        let img = test_image();
        let tight = policy.optimize(&img, 0.05).unwrap();
        let loose = policy.optimize(&img, 0.25).unwrap();
        assert!(loose.power_saving + 1e-9 >= tight.power_saving);
    }

    #[test]
    fn hebs_beats_both_baselines_at_equal_distortion() {
        // The paper's headline comparison: at the same distortion budget,
        // HEBS saves more power than DLS and CBCS.
        use crate::pipeline::PipelineConfig;
        use crate::policy::HebsPolicy;
        let img = test_image();
        let budget = 0.10;
        let hebs = HebsPolicy::closed_loop(PipelineConfig::default())
            .optimize(&img, budget)
            .unwrap();
        let dls = DlsPolicy::new(DlsVariant::ContrastEnhancement)
            .optimize(&img, budget)
            .unwrap();
        let cbcs = CbcsPolicy::new().optimize(&img, budget).unwrap();
        assert!(
            hebs.power_saving >= dls.power_saving - 1e-9,
            "HEBS {} should beat DLS {}",
            hebs.power_saving,
            dls.power_saving
        );
        assert!(
            hebs.power_saving >= cbcs.power_saving - 1e-9,
            "HEBS {} should beat CBCS {}",
            hebs.power_saving,
            cbcs.power_saving
        );
    }

    #[test]
    fn policies_work_through_the_trait_object() {
        let policies: Vec<Box<dyn BacklightPolicy>> = vec![
            Box::new(DlsPolicy::new(DlsVariant::ContrastEnhancement)),
            Box::new(CbcsPolicy::new()),
        ];
        let img = test_image();
        for policy in &policies {
            let outcome = policy.optimize(&img, 0.15).unwrap();
            assert!(!outcome.policy.is_empty());
            assert!(outcome.power_saving >= 0.0);
        }
    }
}
