//! Kit-probing path generation.
//!
//! §4.1(3): within two hours of reporting to OpenPhish, the authors'
//! servers received 81,967 requests whose paths show the bots were
//! looking for (i) famous web shells, (ii) phishing-kit archives
//! (`.zip`), and (iii) stolen-credential stores (`.log`, `.txt`).
//! This module generates that probe traffic's paths and classifies
//! observed paths back into the taxonomy (experiment E4's analysis).

use phishsim_simnet::DetRng;
use serde::{Deserialize, Serialize};

/// The probe taxonomy from the paper's log analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProbeKind {
    /// Famous web shells (`shell.php`, `wso.php`, ...).
    WebShell,
    /// Phishing-kit archives (`.zip`).
    KitArchive,
    /// Stolen credentials (`.log`, `.txt`).
    CredentialStore,
    /// Ordinary crawl of site content.
    Crawl,
}

/// Well-known web-shell filenames probed by scanners.
pub const WEB_SHELLS: &[&str] = &[
    "/shell.php",
    "/wso.php",
    "/c99.php",
    "/r57.php",
    "/b374k.php",
    "/up.php",
    "/alfa.php",
    "/mini.php",
    "/symlink.php",
    "/marijuana.php",
];

/// Kit-archive names, parameterised by the site host.
pub fn kit_archives(host: &str) -> Vec<String> {
    let base = host.split('.').next().unwrap_or(host);
    vec![
        "/kit.zip".to_string(),
        "/backup.zip".to_string(),
        "/www.zip".to_string(),
        format!("/{base}.zip"),
        "/paypal.zip".to_string(),
        "/facebook.zip".to_string(),
        "/secure.zip".to_string(),
    ]
}

/// Credential-store names scanners look for.
pub const CREDENTIAL_STORES: &[&str] = &[
    "/log.txt",
    "/logs.txt",
    "/result.txt",
    "/rezult.txt",
    "/passes.txt",
    "/victims.txt",
    "/emails.txt",
    "/data.log",
    "/visitor.log",
    "/ip.log",
];

/// Classify an observed request path into the probe taxonomy. The
/// query string is ignored and matching is ASCII-case-insensitive.
/// Runs on every background request, so it compares slices in place
/// rather than lower-casing a copy.
pub fn classify_path(path: &str) -> ProbeKind {
    let p = path.split('?').next().unwrap_or(path).as_bytes();
    let ends_with = |suffix: &str| {
        p.len() >= suffix.len()
            && p[p.len() - suffix.len()..].eq_ignore_ascii_case(suffix.as_bytes())
    };
    if WEB_SHELLS
        .iter()
        .any(|s| p.eq_ignore_ascii_case(s.as_bytes()))
    {
        return ProbeKind::WebShell;
    }
    if ends_with(".zip") {
        return ProbeKind::KitArchive;
    }
    if ends_with(".txt") || ends_with(".log") {
        return ProbeKind::CredentialStore;
    }
    ProbeKind::Crawl
}

/// Generate one probe path. `kit_probing` engines draw ~60 % probes;
/// others crawl site content only.
pub fn sample_path(
    host: &str,
    site_paths: &[String],
    kit_probing: bool,
    rng: &mut DetRng,
) -> String {
    sample_path_with_archives(site_paths, &kit_archives(host), kit_probing, rng)
}

/// [`sample_path`] with the host's archive candidates precomputed.
/// High-volume probe loops (tens of thousands of requests per report)
/// call [`kit_archives`] once and reuse the list instead of
/// re-allocating seven strings per request. Draws the same RNG
/// sequence as [`sample_path`], so outputs are identical.
pub fn sample_path_with_archives(
    site_paths: &[String],
    archives: &[String],
    kit_probing: bool,
    rng: &mut DetRng,
) -> String {
    if kit_probing && rng.chance(0.6) {
        match rng.range(0..3u32) {
            0 => (*rng.pick(WEB_SHELLS)).to_string(),
            1 => rng.pick(archives).clone(),
            _ => (*rng.pick(CREDENTIAL_STORES)).to_string(),
        }
    } else if site_paths.is_empty() {
        "/".to_string()
    } else {
        rng.pick(site_paths).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The lower-casing classifier `classify_path` replaced, kept as
    /// the reference it must agree with.
    fn classify_path_lowercased(path: &str) -> ProbeKind {
        let p = path.split('?').next().unwrap_or(path).to_ascii_lowercase();
        if WEB_SHELLS.iter().any(|s| p == *s) {
            return ProbeKind::WebShell;
        }
        if p.ends_with(".zip") {
            return ProbeKind::KitArchive;
        }
        if p.ends_with(".txt") || p.ends_with(".log") {
            return ProbeKind::CredentialStore;
        }
        ProbeKind::Crawl
    }

    /// Alternate the ASCII case of `s`, starting upper or lower.
    fn mixed_case(s: &str, upper_first: bool) -> String {
        s.chars()
            .enumerate()
            .map(|(i, c)| {
                if (i % 2 == 0) == upper_first {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect()
    }

    #[test]
    fn case_insensitive_classifier_matches_lowercasing_reference() {
        let mut known: Vec<String> = WEB_SHELLS
            .iter()
            .chain(CREDENTIAL_STORES)
            .map(|s| s.to_string())
            .collect();
        known.extend(kit_archives("Green-Energy.com"));
        known.extend(["/", "/index.php", "/zip", ".zip", "/a.ZIP.txt"].map(String::from));
        for base in &known {
            for cased in [
                base.clone(),
                base.to_ascii_uppercase(),
                mixed_case(base, true),
                mixed_case(base, false),
            ] {
                for path in [
                    cased.clone(),
                    format!("{cased}?x=1"),
                    format!("{cased}?q=/a.zip"),
                ] {
                    assert_eq!(
                        classify_path(&path),
                        classify_path_lowercased(&path),
                        "{path}"
                    );
                }
            }
        }
        assert_eq!(classify_path("/WSO.PHP?a=b"), ProbeKind::WebShell);
        assert_eq!(classify_path("/Kit.Zip"), ProbeKind::KitArchive);
        assert_eq!(classify_path("/Data.LOG"), ProbeKind::CredentialStore);
    }

    proptest! {
        #[test]
        fn classifier_agrees_with_reference_on_random_strings(
            path in "[/a-zA-Z0-9.?=&éÄ]{0,16}(\\.(zip|ZIP|Txt|log|php))?(\\?[a-z.=]{0,6})?",
            noise in ".{0,24}",
        ) {
            prop_assert_eq!(classify_path(&path), classify_path_lowercased(&path));
            prop_assert_eq!(classify_path(&noise), classify_path_lowercased(&noise));
        }
    }

    #[test]
    fn classification_taxonomy() {
        assert_eq!(classify_path("/wso.php"), ProbeKind::WebShell);
        assert_eq!(classify_path("/paypal.zip"), ProbeKind::KitArchive);
        assert_eq!(classify_path("/site.zip?x=1"), ProbeKind::KitArchive);
        assert_eq!(classify_path("/log.txt"), ProbeKind::CredentialStore);
        assert_eq!(classify_path("/visitor.log"), ProbeKind::CredentialStore);
        assert_eq!(classify_path("/articles/page.php"), ProbeKind::Crawl);
        assert_eq!(classify_path("/"), ProbeKind::Crawl);
    }

    #[test]
    fn kit_probing_engines_emit_all_three_kinds() {
        let mut rng = DetRng::new(4);
        let site_paths = vec!["/index.php".to_string()];
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..500 {
            let p = sample_path("victim.com", &site_paths, true, &mut rng);
            kinds.insert(classify_path(&p));
        }
        assert!(kinds.contains(&ProbeKind::WebShell));
        assert!(kinds.contains(&ProbeKind::KitArchive));
        assert!(kinds.contains(&ProbeKind::CredentialStore));
        assert!(kinds.contains(&ProbeKind::Crawl));
    }

    #[test]
    fn non_probing_engines_only_crawl() {
        let mut rng = DetRng::new(5);
        let site_paths = vec!["/index.php".to_string(), "/a.php".to_string()];
        for _ in 0..200 {
            let p = sample_path("victim.com", &site_paths, false, &mut rng);
            assert_eq!(classify_path(&p), ProbeKind::Crawl);
        }
    }

    #[test]
    fn host_specific_archives_generated() {
        let archives = kit_archives("green-energy.com");
        assert!(archives.contains(&"/green-energy.zip".to_string()));
    }

    #[test]
    fn probe_share_roughly_sixty_percent() {
        let mut rng = DetRng::new(6);
        let site_paths = vec!["/index.php".to_string()];
        let n = 10_000;
        let probes = (0..n)
            .filter(|_| {
                classify_path(&sample_path("v.com", &site_paths, true, &mut rng))
                    != ProbeKind::Crawl
            })
            .count();
        let share = probes as f64 / n as f64;
        assert!((share - 0.6).abs() < 0.03, "probe share {share}");
    }

    #[test]
    fn empty_site_paths_fall_back_to_root() {
        let mut rng = DetRng::new(7);
        assert_eq!(sample_path("v.com", &[], false, &mut rng), "/");
    }
}
