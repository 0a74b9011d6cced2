"""Dataset presets: every array, dtype, shape and name each preset yields.

The digests pin the generators' output at every scale, so a change to how a
preset is declared or dispatched cannot move a single byte of any dataset.
Regenerate with ``PYTHONPATH=src python tests/test_datasets.py`` only when a
generator's output is meant to change.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import available_datasets, load


def dataset_digest(dataset) -> str:
    """sha256 prefix over a dataset's attribute names, scalars and arrays (dtype, shape, bytes)."""
    digest = hashlib.sha256()

    def walk(value):
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (list, tuple)):
            digest.update(f"[{len(value)}".encode())
            for item in value:
                walk(item)
        elif hasattr(value, "__dict__"):
            digest.update(type(value).__name__.encode())
            for key in sorted(vars(value)):
                digest.update(f"{key}=".encode())
                walk(getattr(value, key))
        else:
            digest.update(repr(value).encode())

    walk(dataset)
    return digest.hexdigest()[:16]


#: (name, scale, seed) -> digest; ``None`` is the preset's default seed.
DIGESTS = {
    ("bitcoin-alpha", "tiny", None): "3453b3d293c94c8b",
    ("bitcoin-alpha", "tiny", 3): "d6bcf0286b047e97",
    ("bitcoin-alpha", "small", None): "1457460ab0721898",
    ("bitcoin-alpha", "small", 3): "1b55b43472c5c417",
    ("bitcoin-alpha", "paper", None): "a28f9204c406a07a",
    ("github", "tiny", None): "cef31b4e06fb6231",
    ("github", "tiny", 3): "8b0f96af3e3abec8",
    ("github", "small", None): "204fc4dd4a3bb72b",
    ("github", "small", 3): "5d87b74d8925f095",
    ("github", "paper", None): "95424a1de921a90a",
    ("iso17", "tiny", None): "a0bb5ee1c9be88ff",
    ("iso17", "tiny", 3): "464fa912d6fef0e9",
    ("iso17", "small", None): "1c8657066fddbb0c",
    ("iso17", "small", 3): "9c1d46f1826a838a",
    ("iso17", "paper", None): "3d6739539ea673e0",
    ("lastfm", "tiny", None): "0545b0c8c480f06d",
    ("lastfm", "tiny", 3): "a8c57992a3410da4",
    ("lastfm", "small", None): "96829ce910fd1f9d",
    ("lastfm", "small", 3): "c15d9e0937a8e842",
    ("lastfm", "paper", None): "ad43cbcd9625d44a",
    ("pems", "tiny", None): "d68abdcd500abf8a",
    ("pems", "tiny", 3): "987a188753a73887",
    ("pems", "small", None): "f7b95b4b7c9d1d52",
    ("pems", "small", 3): "c08a88a4da178894",
    ("pems", "paper", None): "873a4246431dd3a3",
    ("reddit", "tiny", None): "91123f125a6de2e4",
    ("reddit", "tiny", 3): "1659eb35eeadf3b8",
    ("reddit", "small", None): "b3ae414a00960918",
    ("reddit", "small", 3): "93bfb286f2715172",
    ("reddit", "paper", None): "899a046a37938c06",
    ("reddit-hyperlinks", "tiny", None): "5bc7eba933d244a8",
    ("reddit-hyperlinks", "tiny", 3): "ddbc14ef34c1e386",
    ("reddit-hyperlinks", "small", None): "c6841016ccddea69",
    ("reddit-hyperlinks", "small", 3): "14950690216f9602",
    ("reddit-hyperlinks", "paper", None): "56af8764b0285d7b",
    ("sbm", "tiny", None): "a69fbcd96a75cae2",
    ("sbm", "tiny", 3): "c40fa578211cb22f",
    ("sbm", "small", None): "049782da0eb07915",
    ("sbm", "small", 3): "24bde0325c0e441f",
    ("sbm", "paper", None): "2c983743f4dda38f",
    ("social-evolution", "tiny", None): "3eaf90ebdc116e25",
    ("social-evolution", "tiny", 3): "e8b91bd362beef08",
    ("social-evolution", "small", None): "656608dae443a949",
    ("social-evolution", "small", 3): "b4a10ddcf9085ee0",
    ("social-evolution", "paper", None): "5ada31d966823ac2",
    ("wikipedia", "tiny", None): "5cf977541d1c17a0",
    ("wikipedia", "tiny", 3): "f6ab0e429c83653b",
    ("wikipedia", "small", None): "5a350b4f9bb39dc4",
    ("wikipedia", "small", 3): "421c369d66e1ddad",
    ("wikipedia", "paper", None): "0bb924138662d3cd",
}


def test_every_dataset_is_pinned():
    assert sorted({key[0] for key in DIGESTS}) == available_datasets()
    assert len(DIGESTS) == 50


@pytest.mark.parametrize("name,scale,seed", list(DIGESTS))
def test_preset_digest(name, scale, seed):
    assert dataset_digest(load(name, scale, seed)) == DIGESTS[(name, scale, seed)]


def test_unknown_dataset_is_a_key_error():
    with pytest.raises(KeyError) as excinfo:
        load("no-such-dataset", "tiny")
    assert excinfo.value.args[0] == (
        "unknown dataset 'no-such-dataset'; available: " + ", ".join(available_datasets())
    )


def test_unknown_scale_is_a_value_error():
    with pytest.raises(ValueError) as excinfo:
        load("wikipedia", "huge")
    assert str(excinfo.value) == "unknown scale 'huge'; expected one of ('tiny', 'small', 'paper')"


def test_name_is_checked_before_scale():
    with pytest.raises(KeyError):
        load("no-such-dataset", "huge")


def _regenerate() -> None:
    cases = [
        (name, scale, seed)
        for name in available_datasets()
        for scale, seeds in (("tiny", (None, 3)), ("small", (None, 3)), ("paper", (None,)))
        for seed in seeds
    ]
    for key in cases:
        name, scale, seed = key
        print(f'    ("{name}", "{scale}", {seed}): "{dataset_digest(load(*key))}",')


if __name__ == "__main__":
    _regenerate()
