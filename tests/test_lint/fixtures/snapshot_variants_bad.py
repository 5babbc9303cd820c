"""Engine/variant/manifest loop left open (lint fixture)."""

ENGINE_NAMES = ("alpha", "beta", "gamma")  # EXPECT: snapshot-variants
VARIANT_TO_ENGINE = {"fast": "alpha", "slow": "ghost", "plain": "gamma"}  # EXPECT: snapshot-variants
_VARIANTS = {"FastSketch": "fast", "SlowSketch": "slow"}  # EXPECT: snapshot-variants


def make_engine(engine, config):
    if engine in ("alpha", "gamma"):
        return object()
    if engine == "ghost":  # EXPECT: snapshot-variants
        return object()
    raise ValueError(engine)


def restore_example(variant, record):
    if variant == "fast":
        return record
    if variant == "legacy":  # EXPECT: snapshot-variants
        return record
    raise ValueError(variant)


def save_example(path, state):
    manifest = {"format_version": 1, "orphan_key": 2}  # EXPECT: snapshot-variants
    path.write_text(str(manifest))


def load_example(record):
    manifest = record
    version = manifest["format_version"]
    missing = manifest["missing_key"]  # EXPECT: snapshot-variants
    return version, missing
