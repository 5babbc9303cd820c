"""Engines, variants, arms and manifest keys all closed."""

ENGINE_NAMES = ("alpha",)
VARIANT_TO_ENGINE = {"fast": "alpha", "legacy": "alpha"}  # restore-only alias
_VARIANTS = {"FastSketch": "fast"}


def make_engine(engine, config):
    if engine == "alpha":
        return object()
    raise ValueError(engine)


def restore_example(variant, record):
    if variant not in VARIANT_TO_ENGINE:
        raise ValueError(variant)
    return make_engine(VARIANT_TO_ENGINE[variant], record)


def save_example(path, state):
    manifest = {"format_version": 1}
    path.write_text(str(manifest))


def load_example(record):
    manifest = record
    version = manifest["format_version"]
    return version
