//! Inputs built from `--seed`, and the benchmark's own oracle for them:
//! what each stored record and each query answer must be, computed here
//! from the generated rows without asking the engine.

use std::collections::{BTreeMap, HashMap, HashSet};

use idea::adm::{json, Value};
use idea::workload::{refdata, TweetGenerator, WorkloadScale};

/// Reference-data scale the issue fixes (5,000 `SafetyRatings` rows).
pub fn scale() -> WorkloadScale {
    WorkloadScale::scaled(0.01)
}

/// Tweets with ids `0..n`, as the JSON text a source would deliver.
pub fn tweets(seed: u64, n: u64) -> Vec<String> {
    TweetGenerator::new(seed).batch(0, n)
}

/// splitmix64: the update stream needs a seeded sequence and nothing
/// more.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The `SafetyRatings` rows the engine is loaded with, as the join the
/// oracle computes for itself: country code → every rating the code may
/// legitimately enrich to (the loaded one, plus each update sent).
pub struct Reference {
    codes: Vec<String>,
    allowed: HashMap<String, HashSet<String>>,
    updates: SplitMix,
}

impl Reference {
    pub fn new(seed: u64) -> Reference {
        let mut codes = Vec::new();
        let mut allowed: HashMap<String, HashSet<String>> = HashMap::new();
        for row in refdata::safety_ratings(&scale(), seed) {
            let field = |name: &str| {
                row.as_object()
                    .and_then(|o| o.get(name))
                    .and_then(Value::as_str)
                    .expect("SafetyRatings rows carry string country_code and safety_rating")
                    .to_owned()
            };
            codes.push(field("country_code"));
            allowed.entry(field("country_code")).or_default().insert(field("safety_rating"));
        }
        Reference { codes, allowed, updates: SplitMix(seed) }
    }

    /// The next reference update, as the JSON the update feed ingests.
    /// From here on the oracle admits the new rating for that country.
    pub fn next_update(&mut self) -> String {
        let code = self.codes[self.updates.below(self.codes.len() as u64) as usize].clone();
        let rating = ["A", "B", "C", "D"][self.updates.below(4) as usize];
        let text = format!(r#"{{"country_code": "{code}", "safety_rating": "{rating}"}}"#);
        self.allowed.entry(code).or_default().insert(rating.to_owned());
        text
    }

    fn admits(&self, country: &str, enriched: &Value) -> bool {
        let ratings = enriched.as_array().unwrap_or(&[]);
        match self.allowed.get(country) {
            None => ratings.is_empty(),
            Some(set) => ratings.len() == 1 && ratings[0].as_str().is_some_and(|r| set.contains(r)),
        }
    }
}

/// Whether `stored` is exactly what ingesting `tweet` must leave behind:
/// every source field unchanged, `ver` as stamped (none for version 0),
/// and, for an enriching feed, a `safety_rating` the reference admits.
pub fn record_ok(stored: &Value, tweet: &str, ver: i64, reference: Option<&Reference>) -> bool {
    let parsed = json::parse(tweet.as_bytes()).expect("generated tweets are valid JSON");
    let (Some(want), Some(got)) = (parsed.as_object(), stored.as_object()) else { return false };
    let mut fields = want.len();
    if !want.iter().all(|(k, v)| got.get(k) == Some(v)) {
        return false;
    }
    if ver > 0 {
        fields += 1;
        if got.get("ver") != Some(&Value::Int(ver)) {
            return false;
        }
    }
    if let Some(reference) = reference {
        fields += 1;
        let country = want.get("country").and_then(Value::as_str).unwrap_or("");
        if !got.get("safety_rating").is_some_and(|r| reference.admits(country, r)) {
            return false;
        }
    }
    got.len() == fields
}

/// The fixed three-query mix and its correct answers over the service
/// dataset. Live upserts only restamp `ver`, so the answers hold for as
/// long as the feed runs.
pub struct QueryMix {
    pub texts: [String; 3],
    count: i64,
    groups: BTreeMap<String, i64>,
}

const RANGE: std::ops::Range<i64> = 1000..1100;

impl QueryMix {
    pub fn new(dataset: &str, tweets: &[String]) -> QueryMix {
        assert!(tweets.len() as i64 >= RANGE.end, "q.range needs ids up to {}", RANGE.end);
        let mut count = 0;
        let mut groups: BTreeMap<String, i64> = BTreeMap::new();
        for t in tweets {
            let v = json::parse(t.as_bytes()).expect("generated tweets are valid JSON");
            let o = v.as_object().expect("a tweet is an object");
            if o.get("latitude").and_then(Value::as_f64).is_some_and(|lat| lat > 0.0) {
                count += 1;
            }
            let country = o.get("country").and_then(Value::as_str).expect("tweets have a country");
            *groups.entry(country.to_owned()).or_default() += 1;
        }
        QueryMix {
            texts: [
                format!("SELECT VALUE COUNT(*) FROM {dataset} t WHERE t.latitude > 0.0"),
                format!("SELECT t.country AS c, COUNT(*) AS n FROM {dataset} t GROUP BY t.country"),
                format!(
                    "SELECT VALUE t.id FROM {dataset} t WHERE t.id >= {} AND t.id < {}",
                    RANGE.start, RANGE.end
                ),
            ],
            count,
            groups,
        }
    }

    /// Whether `rows` is the correct answer to query `q` of the mix.
    pub fn answer_ok(&self, q: usize, rows: &[Value]) -> bool {
        match q {
            0 => rows == [Value::Int(self.count)],
            1 => {
                let got: Option<BTreeMap<String, i64>> = rows
                    .iter()
                    .map(|r| {
                        let o = r.as_object()?;
                        Some((o.get("c")?.as_str()?.to_owned(), o.get("n")?.as_int()?))
                    })
                    .collect();
                rows.len() == self.groups.len() && got.as_ref() == Some(&self.groups)
            }
            _ => {
                let mut ids: Vec<i64> = rows.iter().filter_map(Value::as_int).collect();
                ids.sort_unstable();
                ids.len() == rows.len() && ids.into_iter().eq(RANGE)
            }
        }
    }
}
