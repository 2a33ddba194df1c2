//! End-to-end test of the `gallery` CLI binary: a full workflow against a
//! durable data directory across separate process invocations (each
//! invocation opens, mutates, and closes the store — statelessness).

use std::path::PathBuf;
use std::process::{Command, Output};

fn data_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gallery-cli-test-{}-{}",
        std::process::id(),
        rand_suffix()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rand_suffix() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64
}

fn gallery(data: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gallery"))
        .arg("--data")
        .arg(data)
        .args(args)
        .output()
        .expect("spawn gallery CLI")
}

fn ok_stdout(data: &PathBuf, args: &[&str]) -> String {
    let out = gallery(data, args);
    assert!(
        out.status.success(),
        "gallery {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap().trim().to_owned()
}

#[test]
fn cli_full_workflow() {
    let data = data_dir();

    // create-model prints the model id
    let model_id = ok_stdout(
        &data,
        &[
            "create-model",
            "marketplace",
            "demand/sf",
            "--name",
            "ridge",
            "--owner",
            "fc",
        ],
    );
    assert_eq!(model_id.len(), 36, "uuid expected, got {model_id}");

    // upload a blob file with metadata
    let blob_path = data.join("weights.bin");
    std::fs::write(&blob_path, b"cli weights").unwrap();
    let upload_out = ok_stdout(
        &data,
        &[
            "upload",
            &model_id,
            blob_path.to_str().unwrap(),
            "--meta",
            "city=sf",
            "--meta",
            "model_name=ridge",
        ],
    );
    let instance_id = upload_out.split('\t').next().unwrap().to_owned();
    assert!(upload_out.ends_with("1.0"));

    // metric + query
    ok_stdout(
        &data,
        &["metric", &instance_id, "mape", "validation", "0.08"],
    );
    let hits = ok_stdout(
        &data,
        &[
            "query",
            "model_name=ridge",
            "metricName=mape",
            "metricValue<0.25",
        ],
    );
    assert!(hits.contains(&instance_id));
    let no_hits = ok_stdout(&data, &["query", "metricName=mape", "metricValue<0.01"]);
    assert!(no_hits.is_empty());

    // deploy + deployed
    ok_stdout(&data, &["deploy", &model_id, &instance_id, "production"]);
    assert_eq!(
        ok_stdout(&data, &["deployed", &model_id, "production"]),
        instance_id
    );

    // fetch the blob back byte-identically
    let out_path = data.join("roundtrip.bin");
    ok_stdout(&data, &["fetch", &instance_id, out_path.to_str().unwrap()]);
    assert_eq!(std::fs::read(&out_path).unwrap(), b"cli weights");

    // stage transitions
    assert_eq!(ok_stdout(&data, &["stage", &instance_id]), "trained");
    assert_eq!(
        ok_stdout(&data, &["stage", &instance_id, "evaluated"]),
        "evaluated"
    );

    // dependency wiring
    let upstream_id = ok_stdout(
        &data,
        &["create-model", "marketplace", "weather", "--name", "wx"],
    );
    std::fs::write(data.join("wx.bin"), b"wx").unwrap();
    ok_stdout(
        &data,
        &[
            "upload",
            &upstream_id,
            data.join("wx.bin").to_str().unwrap(),
        ],
    );
    ok_stdout(&data, &["dep-add", &model_id, &upstream_id]);
    let deps = ok_stdout(&data, &["deps", &model_id]);
    assert!(deps.contains(&upstream_id));

    // health + audit
    let health = ok_stdout(&data, &["health", &instance_id]);
    assert!(health.contains("reproducibility"));
    let audit = ok_stdout(&data, &["audit"]);
    assert!(audit.contains("CONSISTENT"), "{audit}");

    // compact the WAL, then confirm everything still reads back
    let compacted = ok_stdout(&data, &["compact"]);
    assert!(compacted.contains("compacted WAL"));
    assert_eq!(
        ok_stdout(&data, &["deployed", &model_id, "production"]),
        instance_id
    );
    assert_eq!(ok_stdout(&data, &["stage", &instance_id]), "evaluated");

    // models listing survives restarts (every call is its own process)
    let models = ok_stdout(&data, &["models", "--project", "marketplace"]);
    assert!(models.contains(&model_id) && models.contains(&upstream_id));

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn cli_wal_dump_prints_the_binary_log_and_changes_nothing() {
    let data = data_dir();
    ok_stdout(&data, &["create-model", "marketplace", "demand/sf"]);
    let wal = data.join("wal.log");
    let clean = std::fs::read(&wal).unwrap();

    let dump = ok_stdout(&data, &["wal-dump"]);
    assert!(
        dump.lines().next().unwrap().contains("CreateTable"),
        "{dump}"
    );
    assert!(dump.lines().all(|l| l.starts_with("{\"")), "{dump}");
    assert!(dump.lines().last().unwrap().contains("Insert"), "{dump}");
    // The model's row: every column it was given, once, in the table's
    // order; the nullable columns it was not given, not at all.
    let model = dump
        .lines()
        .find(|l| l.starts_with("{\"Insert\":{\"table\":\"models\""))
        .unwrap();
    let given = [
        "id",
        "base_version_id",
        "project",
        "name",
        "owner",
        "description",
        "metadata",
        "created",
        "display_major",
    ];
    let at: Vec<usize> = given
        .iter()
        .map(|column| {
            let key = format!("\"{column}\":{{");
            assert_eq!(model.matches(&key).count(), 1, "{column}: {model}");
            model.find(&key).unwrap()
        })
        .collect();
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{model}");
    for absent in ["prev", "deprecated", "Null"] {
        assert!(!model.contains(absent), "{absent}: {model}");
    }

    // A crash artifact: the first 20 bytes of a frame, appended. The dump
    // reports it and — unlike opening the store — leaves it where it is.
    let torn = [&clean[..], &clean[..20]].concat();
    std::fs::write(&wal, &torn).unwrap();
    let dump = ok_stdout(&data, &["wal-dump"]);
    assert_eq!(
        dump.lines().last().unwrap(),
        format!("torn tail at {}, 20 bytes", clean.len())
    );
    assert_eq!(std::fs::read(&wal).unwrap(), torn);

    // Damage inside the log is named, not healed.
    let mut flipped = clean.clone();
    flipped[2] ^= 0x10;
    std::fs::write(&wal, &flipped).unwrap();
    let out = gallery(&data, &["wal-dump"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("corrupt: frame 1 at offset 0"));
    assert_eq!(std::fs::read(&wal).unwrap(), flipped);
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn cli_errors_are_reported() {
    let data = data_dir();
    let out = gallery(&data, &["fetch", "no-such-instance", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let out = gallery(&data, &["unknown-command"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_dir_all(&data);
}
