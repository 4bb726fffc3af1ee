//! Quality of Presentation: the user-level QoS vocabulary.
//!
//! "From a user's perspective, QoS translates into the more qualitative
//! notion of Quality of Presentation (QoP). The user is not expected to
//! understand low level quality parameters such as frame rates or packet
//! loss rate. Instead, the user specifies high-level qualitative
//! parameters," which the User Profile translates into application-QoS
//! ranges ("a user input of 'VCD-like spatial resolution' can be
//! interpreted as a resolution range of 320x240 – 352x288 pixels"). The
//! profile also carries "a per-user weighting of the quality parameters"
//! that orders renegotiation alternatives when the preferred quality is
//! rejected.

use quasaq_media::{CipherAlgo, ColorDepth, FrameRate, QosRange, Resolution};

/// Qualitative spatial resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QopResolution {
    /// Thumbnail/preview class (QCIF).
    Preview,
    /// "VCD-like": 320x240 – 352x288.
    VcdLike,
    /// TV class: 352x288 – 640x480.
    TvLike,
    /// "DVD-quality": 640x480 – 720x480.
    DvdLike,
}

/// Qualitative temporal resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QopMotion {
    /// Slideshow-tolerant (≥ 10 fps).
    Economy,
    /// Standard motion (≥ 20 fps).
    Standard,
    /// Full smooth motion (≥ 23.9 fps).
    Smooth,
}

/// Qualitative color quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QopColor {
    /// Reduced palettes acceptable (≥ 8 bit).
    Basic,
    /// Rich color (≥ 16 bit).
    Rich,
    /// True color (≥ 24 bit).
    True,
}

/// Qualitative security requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QopSecurity {
    /// No encryption needed.
    Open,
    /// Any encryption.
    Standard,
    /// Strong (AES-class) encryption.
    Confidential,
}

impl QopSecurity {
    /// Minimum cipher strength acceptable.
    pub fn min_strength(self) -> f64 {
        match self {
            QopSecurity::Open => 0.0,
            QopSecurity::Standard => 0.5,
            QopSecurity::Confidential => 1.0,
        }
    }

    /// True when `algo` satisfies the requirement.
    pub fn accepts(self, algo: CipherAlgo) -> bool {
        algo.strength() >= self.min_strength() - 1e-12
    }
}

/// A complete QoP request — what the QoP Browser collects from the user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QopRequest {
    /// Spatial quality.
    pub resolution: QopResolution,
    /// Temporal quality.
    pub motion: QopMotion,
    /// Color quality.
    pub color: QopColor,
    /// Security level.
    pub security: QopSecurity,
}

impl QopRequest {
    /// The physician's profile from the paper's motivating example:
    /// "jitter-free playback of very high frame rate and resolution video
    /// … is critical".
    pub fn diagnostic() -> Self {
        QopRequest {
            resolution: QopResolution::DvdLike,
            motion: QopMotion::Smooth,
            color: QopColor::True,
            security: QopSecurity::Confidential,
        }
    }

    /// The nurse's profile: "accessing the same data for organization
    /// purposes may not require the same high quality".
    pub fn organizational() -> Self {
        QopRequest {
            resolution: QopResolution::VcdLike,
            motion: QopMotion::Economy,
            color: QopColor::Basic,
            security: QopSecurity::Standard,
        }
    }

    /// Parses the QoP Browser's textual form: a comma-separated list of
    /// `key=value` pairs with qualitative values, e.g.
    /// `"resolution=dvd, motion=smooth, color=true, security=confidential"`.
    /// Omitted keys default to the organizational profile's values.
    pub fn parse(input: &str) -> Result<QopRequest, String> {
        let mut qop = QopRequest::organizational();
        for pair in input.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, found '{pair}'"))?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim().to_ascii_lowercase();
            match key.as_str() {
                "resolution" => {
                    qop.resolution = match value.as_str() {
                        "preview" => QopResolution::Preview,
                        "vcd" => QopResolution::VcdLike,
                        "tv" => QopResolution::TvLike,
                        "dvd" => QopResolution::DvdLike,
                        other => return Err(format!("unknown resolution '{other}'")),
                    }
                }
                "motion" => {
                    qop.motion = match value.as_str() {
                        "economy" => QopMotion::Economy,
                        "standard" => QopMotion::Standard,
                        "smooth" => QopMotion::Smooth,
                        other => return Err(format!("unknown motion '{other}'")),
                    }
                }
                "color" => {
                    qop.color = match value.as_str() {
                        "basic" => QopColor::Basic,
                        "rich" => QopColor::Rich,
                        "true" => QopColor::True,
                        other => return Err(format!("unknown color '{other}'")),
                    }
                }
                "security" => {
                    qop.security = match value.as_str() {
                        "open" => QopSecurity::Open,
                        "standard" => QopSecurity::Standard,
                        "confidential" => QopSecurity::Confidential,
                        other => return Err(format!("unknown security '{other}'")),
                    }
                }
                other => return Err(format!("unknown QoP key '{other}'")),
            }
        }
        Ok(qop)
    }
}

/// Per-user weighting of quality dimensions, ordering renegotiation:
/// "when renegotiation has to be performed, one user may prefer reduction
/// in the temporal resolution while another user may prefer a reduction
/// in the spatial resolution."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosWeights {
    /// Importance of spatial resolution.
    pub resolution: f64,
    /// Importance of temporal resolution.
    pub frame_rate: f64,
    /// Importance of color depth.
    pub color: f64,
}

impl Default for QosWeights {
    fn default() -> Self {
        QosWeights { resolution: 1.0, frame_rate: 1.0, color: 1.0 }
    }
}

/// A user profile: QoP→QoS mappings plus renegotiation weights.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProfile {
    /// Display name.
    pub name: String,
    /// Renegotiation weights.
    pub weights: QosWeights,
}

impl UserProfile {
    /// A profile with default weights.
    pub fn new(name: impl Into<String>) -> Self {
        UserProfile { name: name.into(), weights: QosWeights::default() }
    }

    /// A profile with explicit weights.
    pub fn with_weights(name: impl Into<String>, weights: QosWeights) -> Self {
        UserProfile { name: name.into(), weights }
    }

    /// Translates a QoP request into an application-QoS range — the
    /// QoP→QoS mapping step of the QoP Browser.
    pub fn translate(&self, qop: &QopRequest) -> QosRange {
        let (min_res, max_res) = match qop.resolution {
            QopResolution::Preview => (Resolution::new(160, 120), Resolution::QVGA),
            QopResolution::VcdLike => (Resolution::QVGA, Resolution::CIF),
            QopResolution::TvLike => (Resolution::CIF, Resolution::VGA),
            QopResolution::DvdLike => (Resolution::VGA, Resolution::FULL),
        };
        let (min_fps, max_fps) = match qop.motion {
            QopMotion::Economy => (10.0, 30.0),
            QopMotion::Standard => (20.0, 30.0),
            QopMotion::Smooth => (23.9, 30.0),
        };
        let min_color = match qop.color {
            QopColor::Basic => ColorDepth::PALETTE,
            QopColor::Rich => ColorDepth::HIGH_COLOR,
            QopColor::True => ColorDepth::TRUE_COLOR,
        };
        QosRange {
            min_resolution: min_res,
            max_resolution: max_res,
            min_color,
            min_frame_rate: FrameRate::from_fps(min_fps),
            max_frame_rate: FrameRate::from_fps(max_fps),
            formats: None,
        }
    }

    /// Degraded alternatives for the "second chance" path: "a number of
    /// admittable alternative plans will be presented as a 'second
    /// chance' for the query to be serviced." Each alternative relaxes
    /// one quality dimension's floor; dimensions with *lower* weight are
    /// relaxed first.
    pub fn degrade_options(&self, range: &QosRange) -> Vec<QosRange> {
        self.relax_order().into_iter().filter_map(|dim| dim.relax(range)).collect()
    }

    /// The first of the [`degrade_options`](Self::degrade_options), one
    /// step down the second-chance ladder, built without the others.
    pub fn degrade_step(&self, range: &QosRange) -> Option<QosRange> {
        self.relax_order().into_iter().find_map(|dim| dim.relax(range))
    }

    /// The quality dimensions by ascending weight, ties in declaration
    /// order.
    fn relax_order(&self) -> [Dimension; 3] {
        let w = &self.weights;
        let mut dims = [
            (w.resolution, Dimension::Resolution),
            (w.frame_rate, Dimension::FrameRate),
            (w.color, Dimension::Color),
        ];
        dims.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        dims.map(|(_, dim)| dim)
    }
}

/// A quality dimension whose floor the second-chance ladder relaxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dimension {
    Resolution,
    FrameRate,
    Color,
}

impl Dimension {
    /// `range` with this dimension's floor halved (never below its
    /// global floor), or `None` when the floor is already at the bottom
    /// or the relaxed range is invalid.
    fn relax(self, range: &QosRange) -> Option<QosRange> {
        let relaxed = match self {
            Dimension::Resolution => {
                let m = range.min_resolution;
                (m.width > 160 || m.height > 120).then(|| QosRange {
                    min_resolution: Resolution::new(
                        (m.width / 2).max(160),
                        (m.height / 2).max(120),
                    ),
                    ..range.clone()
                })
            }
            Dimension::FrameRate => {
                let fps = range.min_frame_rate.fps();
                (fps > 8.0).then(|| QosRange {
                    min_frame_rate: FrameRate::from_fps((fps / 2.0).max(8.0)),
                    ..range.clone()
                })
            }
            Dimension::Color => {
                let bits = range.min_color.bits();
                (bits > 8).then(|| QosRange {
                    min_color: ColorDepth::from_bits((bits / 2).max(8)),
                    ..range.clone()
                })
            }
        };
        relaxed.filter(QosRange::is_valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcd_mapping_matches_paper() {
        let profile = UserProfile::new("u");
        let qop = QopRequest {
            resolution: QopResolution::VcdLike,
            motion: QopMotion::Standard,
            color: QopColor::True,
            security: QopSecurity::Open,
        };
        let range = profile.translate(&qop);
        // "a resolution range of 320x240 – 352x288 pixels".
        assert_eq!(range.min_resolution, Resolution::QVGA);
        assert_eq!(range.max_resolution, Resolution::CIF);
        assert!(range.is_valid());
    }

    #[test]
    fn diagnostic_stricter_than_organizational() {
        let profile = UserProfile::new("md");
        let hi = profile.translate(&QopRequest::diagnostic());
        let lo = profile.translate(&QopRequest::organizational());
        assert!(hi.min_resolution.covers(lo.min_resolution));
        assert!(hi.min_frame_rate > lo.min_frame_rate);
        assert!(hi.min_color > lo.min_color);
    }

    #[test]
    fn security_levels() {
        assert!(QopSecurity::Open.accepts(CipherAlgo::None));
        assert!(!QopSecurity::Standard.accepts(CipherAlgo::None));
        assert!(QopSecurity::Standard.accepts(CipherAlgo::Stream));
        assert!(!QopSecurity::Confidential.accepts(CipherAlgo::Block));
        assert!(QopSecurity::Confidential.accepts(CipherAlgo::Aes));
    }

    #[test]
    fn degrade_follows_weights() {
        let range = UserProfile::new("u").translate(&QopRequest::diagnostic());
        // This user cares about resolution most, frame rate least.
        let profile = UserProfile::with_weights(
            "u",
            QosWeights { resolution: 3.0, frame_rate: 0.5, color: 1.0 },
        );
        let options = profile.degrade_options(&range);
        assert_eq!(options.len(), 3);
        // First option relaxes frame rate (lowest weight), leaving
        // resolution untouched.
        assert!(options[0].min_frame_rate < range.min_frame_rate);
        assert_eq!(options[0].min_resolution, range.min_resolution);
        // Last option relaxes resolution (highest weight).
        assert!(options[2].min_resolution < range.min_resolution);
    }

    #[test]
    fn degrade_bottoms_out() {
        let profile = UserProfile::new("u");
        let mut range = profile.translate(&QopRequest::organizational());
        // Grind everything to the floor.
        for _ in 0..10 {
            let opts = profile.degrade_options(&range);
            match opts.into_iter().last() {
                Some(r) => range = r,
                None => break,
            }
        }
        // Eventually no further degradation is possible on some dimension.
        let final_opts = profile.degrade_options(&range);
        assert!(final_opts.len() < 3);
    }

    #[test]
    fn parse_full_and_partial() {
        let qop =
            QopRequest::parse("resolution=dvd, motion=smooth, color=true, security=confidential")
                .unwrap();
        assert_eq!(qop, QopRequest::diagnostic());
        // Partial input keeps organizational defaults.
        let qop = QopRequest::parse("motion=smooth").unwrap();
        assert_eq!(qop.motion, QopMotion::Smooth);
        assert_eq!(qop.resolution, QopResolution::VcdLike);
        // Empty input is the organizational profile.
        assert_eq!(QopRequest::parse("").unwrap(), QopRequest::organizational());
        // Case and spacing are forgiven.
        let qop = QopRequest::parse("  RESOLUTION = TV ,color=rich ").unwrap();
        assert_eq!(qop.resolution, QopResolution::TvLike);
        assert_eq!(qop.color, QopColor::Rich);
    }

    #[test]
    fn parse_rejects_unknown_tokens() {
        assert!(QopRequest::parse("resolution=8k").is_err());
        assert!(QopRequest::parse("sharpness=high").is_err());
        assert!(QopRequest::parse("resolution").is_err());
        assert!(QopRequest::parse("motion=wobbly").is_err());
        assert!(QopRequest::parse("color=greyscale").is_err());
        assert!(QopRequest::parse("security=nuclear").is_err());
    }

    #[test]
    fn all_translations_are_valid_ranges() {
        let profile = UserProfile::new("u");
        for res in [
            QopResolution::Preview,
            QopResolution::VcdLike,
            QopResolution::TvLike,
            QopResolution::DvdLike,
        ] {
            for motion in [QopMotion::Economy, QopMotion::Standard, QopMotion::Smooth] {
                for color in [QopColor::Basic, QopColor::Rich, QopColor::True] {
                    let range = profile.translate(&QopRequest {
                        resolution: res,
                        motion,
                        color,
                        security: QopSecurity::Open,
                    });
                    assert!(range.is_valid(), "{res:?}/{motion:?}/{color:?}");
                }
            }
        }
    }
}
