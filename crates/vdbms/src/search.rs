//! Content-based search: the conventional half of query processing.
//!
//! "In our QuaSAQ-enhanced database, queries on videos are processed in
//! two steps: 1. searching and identification of video objects done by
//! the original VDBMS; 2. QoS-constrained delivery of the video by
//! QuaSAQ." This module is step 1: it evaluates a query's content
//! predicate against the metadata engine's content metadata (keywords and
//! feature vectors) and returns ranked logical OIDs.

use crate::query::{ContentPredicate, Query, SearchHit};
use quasaq_media::{VideoId, VideoMeta, FEATURE_DIMS};
use quasaq_store::MetadataEngine;

/// Cosine similarity of two unit-ish feature vectors.
pub fn cosine(a: &[f32; FEATURE_DIMS], b: &[f32; FEATURE_DIMS]) -> f64 {
    let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)) as f64
    }
}

fn keyword_score(meta: &VideoMeta, keywords: &[String], require_all: bool) -> Option<f64> {
    let mut matched = 0usize;
    for kw in keywords {
        if meta.keywords.iter().any(|k| k.eq_ignore_ascii_case(kw))
            || meta.title.to_ascii_lowercase().contains(&kw.to_ascii_lowercase())
        {
            matched += 1;
        }
    }
    if matched == 0 || (require_all && matched < keywords.len()) {
        return None;
    }
    Some(matched as f64 / keywords.len() as f64)
}

/// Executes the content component of `query` against the engine's
/// metadata, returning hits in descending score order (ties by OID).
pub fn search(engine: &MetadataEngine, query: &Query) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = Vec::new();
    match &query.predicate {
        ContentPredicate::All => {
            hits.extend(engine.videos().map(|m| SearchHit { video: m.id, score: 1.0 }));
        }
        ContentPredicate::ById(id) => {
            if engine.video(*id).is_some() {
                hits.push(SearchHit { video: *id, score: 1.0 });
            }
        }
        ContentPredicate::KeywordAny(kws) => {
            for m in engine.videos() {
                if let Some(score) = keyword_score(m, kws, false) {
                    hits.push(SearchHit { video: m.id, score });
                }
            }
        }
        ContentPredicate::KeywordAll(kws) => {
            for m in engine.videos() {
                if let Some(score) = keyword_score(m, kws, true) {
                    hits.push(SearchHit { video: m.id, score });
                }
            }
        }
        ContentPredicate::SimilarTo { video, min_score } => {
            if let Some(reference) = engine.video(*video) {
                let ref_features = reference.features;
                for m in engine.videos() {
                    if m.id == *video {
                        continue;
                    }
                    let score = cosine(&ref_features, &m.features);
                    if score >= *min_score {
                        hits.push(SearchHit { video: m.id, score });
                    }
                }
            }
        }
    }
    hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.video.cmp(&b.video)));
    if let Some(limit) = query.limit {
        hits.truncate(limit);
    }
    hits
}

/// Resolves a query to the single best-matching logical OID, if any — the
/// common path for delivery experiments.
pub fn resolve_one(engine: &MetadataEngine, query: &Query) -> Option<VideoId> {
    search(engine, query).first().map(|h| h.video)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{Library, LibraryConfig};
    use quasaq_sim::ServerId;

    fn engine() -> MetadataEngine {
        let lib = Library::generate(42, &LibraryConfig::default());
        let mut e = MetadataEngine::new(ServerId::first_n(3));
        for entry in lib.entries() {
            e.insert_video(entry.meta.clone());
        }
        e
    }

    #[test]
    fn all_returns_everything() {
        let e = engine();
        let hits = search(&e, &Query::content(ContentPredicate::All));
        assert_eq!(hits.len(), 15);
    }

    #[test]
    fn by_id_exact() {
        let e = engine();
        let hits = search(&e, &Query::content(ContentPredicate::ById(VideoId(3))));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].video, VideoId(3));
        let none = search(&e, &Query::content(ContentPredicate::ById(VideoId(99))));
        assert!(none.is_empty());
    }

    #[test]
    fn keyword_any_matches_known_keyword() {
        let e = engine();
        // Use an actual keyword from the generated catalog.
        let kw = e.videos().next().unwrap().keywords[0].clone();
        let hits = search(&e, &Query::content(ContentPredicate::KeywordAny(vec![kw.clone()])));
        assert!(!hits.is_empty());
        for h in &hits {
            let m = e.video(h.video).unwrap();
            assert!(
                m.keywords.iter().any(|k| k.eq_ignore_ascii_case(&kw)) || m.title.contains(&kw)
            );
        }
    }

    #[test]
    fn keyword_all_is_stricter() {
        let e = engine();
        let m0 = e.videos().next().unwrap();
        let kws: Vec<String> = m0.keywords.iter().take(2).cloned().collect();
        let any = search(&e, &Query::content(ContentPredicate::KeywordAny(kws.clone())));
        let all = search(&e, &Query::content(ContentPredicate::KeywordAll(kws)));
        assert!(all.len() <= any.len());
        assert!(all.iter().any(|h| h.video == m0.id));
    }

    #[test]
    fn limit_truncates_ranked() {
        let e = engine();
        let hits = search(&e, &Query::content(ContentPredicate::All).with_limit(4));
        assert_eq!(hits.len(), 4);
        // Scores descending.
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn similarity_excludes_reference_and_thresholds() {
        let e = engine();
        let hits = search(
            &e,
            &Query::content(ContentPredicate::SimilarTo { video: VideoId(0), min_score: -1.0 }),
        );
        assert_eq!(hits.len(), 14);
        assert!(hits.iter().all(|h| h.video != VideoId(0)));
        let strict = search(
            &e,
            &Query::content(ContentPredicate::SimilarTo { video: VideoId(0), min_score: 0.9 }),
        );
        assert!(strict.len() <= hits.len());
        for h in &strict {
            assert!(h.score >= 0.9);
        }
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let b = [0.0f32, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &b).abs() < 1e-6);
        let zero = [0.0f32; 8];
        assert_eq!(cosine(&a, &zero), 0.0);
    }

    #[test]
    fn resolve_one_picks_top_hit() {
        let e = engine();
        assert_eq!(
            resolve_one(&e, &Query::content(ContentPredicate::ById(VideoId(5)))),
            Some(VideoId(5))
        );
        assert_eq!(
            resolve_one(
                &e,
                &Query::content(ContentPredicate::KeywordAny(vec!["nonexistent-kw".into()]))
            ),
            None
        );
    }
}
