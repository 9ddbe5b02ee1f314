"""Dictionary learning loop: updates, redraws, persistence, determinism."""

from pathlib import Path

import numpy as np
import pytest

from locosparse.errors import ConfigError, LocosparseError
from locosparse.penalties import PenaltyConfig
from locosparse.rng import CounterRng, derive_seed
from locosparse.trainer import (Dictionary, TrainConfig, dictionary_step,
                                init_dictionary, load_model, save_model, train)

from synthdata import dead_leaves_image


def _small_cfg(kind="wl", **kw):
    base = dict(num_atoms=6, patch_side=4,
                penalty=PenaltyConfig(kind, 0.3),
                steps=5,
                epochs=8, batch_size=12, seed=2)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_image():
    return dead_leaves_image(side=64, num_discs=60, seed=5, r_min=4.0, r_max=20.0)


def test_init_dictionary_unit_columns_and_determinism():
    A = init_dictionary(16, 8, seed=123)
    B = init_dictionary(16, 8, seed=123)
    assert np.array_equal(A, B)
    assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)
    C = init_dictionary(16, 8, seed=124)
    assert not np.array_equal(A, C)


def test_dictionary_step_keeps_unit_norms():
    rng = np.random.default_rng(3)
    A = init_dictionary(16, 5, seed=1)
    Y = rng.normal(size=(16, 10))
    X = np.abs(rng.normal(size=(5, 10)))
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("wl", 0.2), 0.5,
                                   CounterRng(0))
    assert redrawn == []
    assert np.allclose(np.linalg.norm(out, axis=0), 1.0, atol=1e-12)


def _unit_draws(rng, d, count):
    cols = [rng.normals(d) for _ in range(count)]
    return np.stack([c / np.linalg.norm(c) for c in cols], axis=1)


def test_dictionary_step_zero_codes_redraw_every_atom():
    # no atom is used, so every one is redrawn, in ascending order
    A = init_dictionary(9, 4, seed=7)
    Y = np.random.default_rng(1).normal(size=(9, 6))
    X = np.zeros((4, 6))
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("l1", 0.5), 1.0,
                                   CounterRng(0))
    assert redrawn == [0, 1, 2, 3]
    assert np.array_equal(out, _unit_draws(CounterRng(0), 9, 4))


def test_dictionary_step_redraws_collapsed_before_unused():
    # atom 1 collapses (as in the test below) and atom 0 has no code:
    # atom 1 takes the first draw, atom 0 the second, both are reported
    A = init_dictionary(4, 2, seed=9)
    lr = 2.0
    Y = A[:, 1:] * (1.0 - 1.0 / lr)
    X = np.array([[0.0], [1.0]])
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("l1", 0.0), lr,
                                   CounterRng(5))
    assert redrawn == [0, 1]
    assert np.array_equal(out[:, [1, 0]], _unit_draws(CounterRng(5), 4, 2))


def test_dictionary_step_redraws_64_atoms_as_64_draws():
    A = init_dictionary(64, 64, seed=3)
    Y = np.random.default_rng(2).normal(size=(64, 10))
    X = np.zeros((64, 10))
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("wl", 0.5), 1.0,
                                   CounterRng(0))
    assert redrawn == list(range(64))
    assert np.array_equal(out, _unit_draws(CounterRng(0), 64, 64))


def test_dictionary_step_draws_collapsed_then_unused_in_order():
    # stimulus i has code 1 on atom used[i] only; with lr / b = 2, a
    # stimulus y = a / 2 sends its atom exactly to zero (as below)
    A = init_dictionary(16, 8, seed=4)
    collapsed, kept, unused = [2, 5, 7], [1, 4], [0, 3, 6]
    used = collapsed + kept
    X = np.zeros((8, len(used)))
    X[used, range(len(used))] = 1.0
    Y = np.random.default_rng(6).normal(size=(16, len(used)))
    Y[:, :len(collapsed)] = 0.5 * A[:, collapsed]
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("l1", 0.0), 2.0 * len(used),
                                   CounterRng(8))
    assert redrawn == sorted(collapsed + unused)
    assert np.array_equal(out[:, collapsed + unused], _unit_draws(CounterRng(8), 16, 6))


def test_dictionary_step_redraws_collapsed_column():
    # one atom, one stimulus, code 1: the update is a - lr (a - y), and
    # y = a (1 - 1/lr) sends the column exactly to zero
    A = init_dictionary(4, 1, seed=9)
    lr = 2.0
    Y = A * (1.0 - 1.0 / lr)
    X = np.ones((1, 1))
    rng = CounterRng(derive_seed(0, "redraw-test"))
    out, redrawn = dictionary_step(A, Y, X, PenaltyConfig("l1", 0.0), lr, rng)
    assert redrawn == [0]
    assert np.linalg.norm(out[:, 0]) == pytest.approx(1.0)
    assert not np.allclose(out, A)


def test_train_is_deterministic(small_image):
    cfg = _small_cfg()
    m1 = train(small_image, cfg)
    m2 = train(small_image, cfg)
    assert np.array_equal(m1.dictionary.atoms, m2.dictionary.atoms)
    assert np.array_equal(m1.loss_history, m2.loss_history)


def test_train_shapes_and_unit_atoms(small_image):
    model = train(small_image, _small_cfg())
    assert model.dictionary.atoms.shape == (16, 6)
    assert np.allclose(np.linalg.norm(model.dictionary.atoms, axis=0), 1.0,
                       atol=1e-12)
    assert model.loss_history.shape == (8,)
    assert np.all(np.isfinite(model.loss_history))


def test_train_zero_epochs_returns_initial_dictionary(small_image):
    cfg = _small_cfg(epochs=0)
    model = train(small_image, cfg)
    want = init_dictionary(16, 6, derive_seed(2, "dict-init"))
    assert np.array_equal(model.dictionary.atoms, want)
    assert model.loss_history.size == 0


def test_train_all_penalties_run(small_image):
    for kind in ("l1", "wl", "lap"):
        model = train(small_image, _small_cfg(kind=kind, epochs=3))
        assert model.dictionary.atoms.shape == (16, 6)


def test_inactive_atoms_are_reinitialized(small_image):
    # an absurd l1 threshold silences every code, so every atom is
    # redrawn on every batch: the trained atoms are the second batch's draw
    cfg = _small_cfg(kind="l1", penalty=PenaltyConfig("l1", 1e6), epochs=2)
    model = train(small_image, cfg)
    rng = CounterRng(derive_seed(cfg.seed, "dict-reinit"))
    rng.normals(16 * 6)  # the first batch's redraw
    want = np.array([c / np.linalg.norm(c) for c in rng.normals(16 * 6).reshape(6, 16)]).T
    assert np.array_equal(model.dictionary.atoms, want)


def test_lap_training_differs_from_l1(small_image):
    a = train(small_image, _small_cfg(kind="l1", epochs=4)).dictionary.atoms
    b = train(small_image, _small_cfg(kind="lap", epochs=4)).dictionary.atoms
    assert not np.array_equal(a, b)


def test_save_load_roundtrip(tmp_path, small_image):
    model = train(small_image, _small_cfg(epochs=3))
    prefix = str(tmp_path / "model")
    assert save_model(model, prefix) == (f"{prefix}.sct", f"{prefix}.meta")
    loaded, meta = load_model(prefix)
    assert np.array_equal(loaded.atoms, model.dictionary.atoms)
    assert loaded.patch_side == 4
    assert meta["penalty"] == "wl"
    assert meta["lambda"] == 0.3
    assert meta["steps"] == 5
    assert meta["momentum_mode"] == "aswritten"
    assert meta["epochs"] == 3
    assert meta["batch_size"] == 12
    assert meta["seed"] == 2
    assert meta["encoder"] == model.config.encoder_config()


def test_meta_file_key_order_is_stable(tmp_path, small_image):
    model = train(small_image, _small_cfg(epochs=1))
    prefix = str(tmp_path / "model")
    save_model(model, prefix)
    keys = [line.split("=")[0] for line in
            Path(f"{prefix}.meta").read_text(encoding="utf-8").splitlines()]
    assert keys == ["penalty", "lambda", "patch_side", "steps", "momentum_mode",
                    "seed", "epochs", "batch_size", "knn_k"]


def test_load_model_missing_file(tmp_path):
    with pytest.raises(LocosparseError) as excinfo:
        load_model(str(tmp_path / "absent"))
    assert excinfo.type is LocosparseError


def test_load_model_rejects_missing_keys(tmp_path, small_image):
    model = train(small_image, _small_cfg(epochs=1))
    prefix = str(tmp_path / "model")
    save_model(model, prefix)
    meta_path = Path(f"{prefix}.meta")
    lines = meta_path.read_text(encoding="utf-8").splitlines()
    meta_path.write_text(
        "\n".join(ln for ln in lines if not ln.startswith("penalty=")) + "\n",
        encoding="utf-8")
    with pytest.raises(LocosparseError) as excinfo:
        load_model(prefix)
    assert excinfo.type is LocosparseError


def test_load_model_rejects_bad_numeric(tmp_path, small_image):
    model = train(small_image, _small_cfg(epochs=1))
    prefix = str(tmp_path / "model")
    save_model(model, prefix)
    meta_path = Path(f"{prefix}.meta")
    text = meta_path.read_text(encoding="utf-8").replace("epochs=1", "epochs=one")
    meta_path.write_text(text, encoding="utf-8")
    with pytest.raises(LocosparseError) as excinfo:
        load_model(prefix)
    assert excinfo.type is LocosparseError


def test_load_model_rejects_inconsistent_shape(tmp_path, small_image):
    model = train(small_image, _small_cfg(epochs=1))
    prefix = str(tmp_path / "model")
    save_model(model, prefix)
    meta_path = Path(f"{prefix}.meta")
    text = meta_path.read_text(encoding="utf-8").replace("patch_side=4", "patch_side=5")
    meta_path.write_text(text, encoding="utf-8")
    with pytest.raises(LocosparseError) as excinfo:
        load_model(prefix)
    assert excinfo.type is LocosparseError
    assert str(excinfo.value).startswith(f"{prefix}.sct: ")


def test_train_config_validation():
    pen = PenaltyConfig("l1", 0.5)
    with pytest.raises(ConfigError):
        TrainConfig(num_atoms=0, patch_side=4, penalty=pen)
    with pytest.raises(ConfigError):
        TrainConfig(num_atoms=4, patch_side=1, penalty=pen)
    with pytest.raises(ConfigError):
        TrainConfig(num_atoms=4, patch_side=4, penalty=pen, steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(num_atoms=4, patch_side=4, penalty=pen, momentum_mode="turbo")
    with pytest.raises(ConfigError):
        TrainConfig(num_atoms=4, patch_side=4, penalty=pen, epochs=-1)


def test_dictionary_contract():
    with pytest.raises(ConfigError):
        Dictionary(np.zeros((15, 3)), patch_side=4)
