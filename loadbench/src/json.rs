//! Small helpers over the vendored `serde` data model, which is all the
//! JSON the benchmark needs: result lines, run files, `BENCHMARK.json`.

pub use serde::Content as Json;

pub fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// A measured number. Non-finite values have no JSON form; they are
/// written as 0 and the run is marked incorrect where that matters.
pub fn num(v: f64) -> Json {
    Json::F64(if v.is_finite() { v } else { 0.0 })
}

pub fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn entries(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Map(entries) => entries,
        _ => &[],
    }
}

pub fn items(j: &Json) -> &[Json] {
    match j {
        Json::Seq(items) => items,
        _ => &[],
    }
}

pub fn as_f64(j: &Json) -> Option<f64> {
    match *j {
        Json::F64(v) => Some(v),
        Json::I64(v) => Some(v as f64),
        Json::U64(v) => Some(v as f64),
        _ => None,
    }
}

pub fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_bool(j: &Json) -> Option<bool> {
    match *j {
        Json::Bool(b) => Some(b),
        _ => None,
    }
}

pub fn line(j: &Json) -> String {
    serde_json::to_string(j).expect("every number was made finite")
}

pub fn pretty(j: &Json) -> String {
    serde_json::to_string_pretty(j).expect("every number was made finite")
}

pub fn parse(s: &str) -> Result<Json, String> {
    serde_json::from_str::<Json>(s).map_err(|e| e.to_string())
}
