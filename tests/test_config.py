"""Config parsing: defaults, canonical echo, validation, sweep expansion."""

import json

import numpy as np
import pytest

from entchain import ConfigError, RunConfig, __version__, from_dict, parse_config
from entchain.config import (
    MAX_SITES,
    MAX_TIME_POINTS,
    _uniform_grid,
    canonical_echo,
    expand_sweep,
)


def minimal_doc():
    return {
        "model": {
            "n": 4,
            "omega_i": 3.0,
            "k_i": 2.0,
            "omega_f": 0.3,
            "k_f": 2.5,
        }
    }


class TestDefaults:
    def test_minimal_document_fills_defaults(self):
        cfg = from_dict(minimal_doc())
        assert isinstance(cfg, RunConfig)
        assert cfg.chain.n == 4
        assert cfg.chain.boundary == "periodic"
        assert cfg.schedule is None
        assert cfg.partition.traced == (3, 4)
        assert cfg.partition.kept == (1, 2)
        assert cfg.dt == 0.01
        assert cfg.t_max == 100.0
        assert cfg.alphas == (1,)
        assert cfg.precision == 12
        assert cfg.tolerance == 1e-10
        assert cfg.output_path is None

    def test_second_half_partition_odd_chain(self):
        doc = minimal_doc()
        doc["model"]["n"] = 5
        cfg = from_dict(doc)
        assert cfg.partition.traced == (3, 4, 5)

    def test_alphas_sorted_and_deduplicated(self):
        doc = minimal_doc()
        doc["entropy"] = {"alphas": [3, 1, 2, 1]}
        assert from_dict(doc).alphas == (1, 2, 3)

    def test_explicit_traced_list(self):
        doc = minimal_doc()
        doc["partition"] = {"traced": [2, 4]}
        cfg = from_dict(doc)
        assert cfg.partition.traced == (2, 4)
        assert cfg.partition.kept == (1, 3)


class TestTimeGrid:
    def test_row_count_and_spacing(self):
        grid = _uniform_grid(100.0, 0.01)[:]
        assert grid.shape == (10001,)
        assert grid[0] == 0.0
        np.testing.assert_allclose(grid[-1], 100.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(np.diff(grid), 0.01, rtol=0, atol=1e-12)

    def test_non_representable_step_keeps_endpoint(self):
        assert _uniform_grid(0.3, 0.1).size == 4

    @pytest.mark.parametrize("t_max, dt, match", [
        (10.0, -0.1, "finite dt > 0"),
        (10.0, 0.0, "finite dt > 0"),
        (-5.0, 0.1, "t_max >= 0"),
        (np.nan, 0.1, "finite"),
        (np.inf, 0.1, "finite"),
        (10.0, np.nan, "finite"),
        # Refused from the point count, before any grid is allocated.
        (1e300, 1e-300, "grid points, more than"),
        (float(MAX_TIME_POINTS), 0.5, "grid points, more than"),
    ])
    def test_invalid_grid_rejected(self, t_max, dt, match):
        with pytest.raises(ValueError, match=match):
            _uniform_grid(t_max, dt)

    def test_config_times_property(self):
        doc = minimal_doc()
        doc["time"] = {"t_max": 2.0, "dt": 0.5}
        cfg = from_dict(doc)
        np.testing.assert_allclose(cfg.grid[:], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_t_max_below_dt_rejected(self):
        doc = minimal_doc()
        doc["time"] = {"t_max": 0.005, "dt": 0.01}
        with pytest.raises(ConfigError, match="time.t_max"):
            from_dict(doc)


class TestEcho:
    def test_canonical_form(self):
        cfg = from_dict(minimal_doc())
        echo = canonical_echo(cfg)
        doc = json.loads(echo)
        assert doc["version"] == __version__
        assert doc["model"] == {
            "mode": "oscillator",
            "n": 4,
            "boundary": "periodic",
            "omega_i": 3.0,
            "k_i": 2.0,
            "omega_f": 0.3,
            "k_f": 2.5,
        }
        assert doc["quench"] == {"kind": "sudden"}
        assert doc["partition"] == {"traced": [3, 4]}
        assert doc["time"] == {"t_max": 100.0, "dt": 0.01}
        assert doc["entropy"] == {"alphas": [1]}
        assert doc["output"] == {"precision": 12}
        # one line, sorted keys, compact separators
        assert "\n" not in echo
        assert ": " not in echo and ", " not in echo
        assert echo == json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def test_output_path_never_echoed(self):
        doc = minimal_doc()
        doc["output"] = {"path": "somewhere.csv", "precision": 6}
        cfg = from_dict(doc)
        assert cfg.output_path == "somewhere.csv"
        assert "path" not in json.loads(canonical_echo(cfg))["output"]

    def test_echo_round_trips(self):
        doc = minimal_doc()
        doc["entropy"] = {"alphas": [1, 2]}
        doc["time"] = {"t_max": 7.5, "dt": 0.05}
        first = canonical_echo(from_dict(doc))
        second = canonical_echo(parse_config(first))
        assert second == first

    def test_general_quench_echo_round_trips(self):
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0},
            "quench": {
                "kind": "general",
                "table": [[0.0, 3.0, 2.0], [2.0, 1.0, 2.5]],
                "interpolation": "linear",
            },
        }
        cfg = from_dict(doc)
        echo = canonical_echo(cfg)
        parsed = json.loads(echo)
        assert parsed["quench"]["table"] == [[0.0, 3.0, 2.0], [2.0, 1.0, 2.5]]
        assert parsed["quench"]["interpolation"] == "linear"
        assert parsed["quench"]["tolerance"] == 1e-10
        assert canonical_echo(parse_config(echo)) == echo

    def test_bose_hubbard_echo_round_trips(self):
        doc = {"model": {"mode": "bose_hubbard", "omega_bh_i": 3.0,
                         "omega_bh_f": 2.15, "hop": 2.0}}
        cfg = from_dict(doc)
        parsed = json.loads(canonical_echo(cfg))
        assert parsed["model"] == {
            "mode": "bose_hubbard",
            "omega_bh_i": 3.0,
            "omega_bh_f": 2.15,
            "hop": 2.0,
        }
        assert cfg.chain.n == 2
        assert cfg.chain.boundary == "open"
        assert canonical_echo(parse_config(canonical_echo(cfg))) == canonical_echo(cfg)


class TestValidation:
    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="config root must be an object"):
            from_dict([1, 2])

    def test_unknown_top_level_block(self):
        doc = minimal_doc()
        doc["extra"] = {}
        with pytest.raises(ConfigError, match="extra: unknown block"):
            from_dict(doc)

    def test_unknown_model_key_dotted_path(self):
        doc = minimal_doc()
        doc["model"]["foo"] = 1
        with pytest.raises(ConfigError, match=r"model\.foo: unknown key"):
            from_dict(doc)

    def test_missing_model_block(self):
        with pytest.raises(ConfigError, match="model: required block is missing"):
            from_dict({})

    def test_missing_required_key(self):
        doc = minimal_doc()
        del doc["model"]["omega_i"]
        with pytest.raises(ConfigError, match=r"model\.omega_i: required key is missing"):
            from_dict(doc)

    def test_number_type_checked(self):
        doc = minimal_doc()
        doc["model"]["omega_i"] = "3"
        with pytest.raises(ConfigError, match="expected a number"):
            from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = minimal_doc()
        doc["model"]["k_i"] = True
        with pytest.raises(ConfigError, match="expected a number"):
            from_dict(doc)

    def test_non_finite_rejected(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = float("inf")
        with pytest.raises(ConfigError, match="must be finite"):
            from_dict(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_table_value_rejected(self, literal, column):
        row = ["10.0", "2.0", "2.2"]
        row[column] = literal
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0},
            "quench": {"kind": "general", "table": json.loads(f"[[0, 3, 2], [{', '.join(row)}]]")},
        }
        with pytest.raises(ConfigError, match=r"quench\.table\[1\]: .*must be finite"):
            from_dict(doc)

    def test_bad_choice_lists_options(self):
        doc = minimal_doc()
        doc["model"]["boundary"] = "closed"
        with pytest.raises(ConfigError, match="expected one of"):
            from_dict(doc)

    def test_version_must_be_string(self):
        doc = minimal_doc()
        doc["version"] = 3
        with pytest.raises(ConfigError, match="version: expected a string"):
            from_dict(doc)

    def test_traced_site_out_of_range(self):
        doc = minimal_doc()
        doc["partition"] = {"traced": [0, 1]}
        with pytest.raises(ConfigError, match=r"partition\.traced.*1\.\.4"):
            from_dict(doc)

    def test_traced_must_be_list_or_keyword(self):
        doc = minimal_doc()
        doc["partition"] = {"traced": "first_half"}
        with pytest.raises(ConfigError, match='"second_half" or a list of site numbers'):
            from_dict(doc)

    def test_alphas_reject_zero(self):
        doc = minimal_doc()
        doc["entropy"] = {"alphas": [0, 1]}
        with pytest.raises(ConfigError, match="integers >= 1"):
            from_dict(doc)

    def test_precision_capped(self):
        doc = minimal_doc()
        doc["output"] = {"precision": 18}
        with pytest.raises(ConfigError, match="at most 17"):
            from_dict(doc)

    def test_size_caps_are_inclusive(self):
        doc = minimal_doc()
        doc["model"]["n"] = MAX_SITES
        doc["time"] = {"t_max": (MAX_TIME_POINTS - 1) * 0.5, "dt": 0.5}
        cfg = from_dict(doc)
        assert cfg.chain.n == MAX_SITES
        assert cfg.grid.size == MAX_TIME_POINTS
        doc["model"]["n"] = MAX_SITES + 1
        with pytest.raises(ConfigError, match="model.n: must be at most 4096"):
            from_dict(doc)
        doc["model"]["n"] = 4
        doc["time"]["t_max"] += 0.5
        with pytest.raises(ConfigError, match="time.t_max: .* more than 10000000"):
            from_dict(doc)

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")


class TestQuenchKinds:
    def test_sudden_rejects_table(self):
        doc = minimal_doc()
        doc["quench"] = {"kind": "sudden", "table": [[0.0, 3.0, 2.0]]}
        with pytest.raises(ConfigError, match="only valid for quench.kind = general"):
            from_dict(doc)

    def test_general_rejects_final_model_params(self):
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0, "omega_f": 0.3},
            "quench": {"kind": "general", "table": [[0.0, 3.0, 2.0]]},
        }
        with pytest.raises(ConfigError, match=r"model\.omega_f"):
            from_dict(doc)

    def test_general_requires_table(self):
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0},
            "quench": {"kind": "general"},
        }
        with pytest.raises(ConfigError, match="non-empty list"):
            from_dict(doc)

    def test_general_table_rows_are_triples(self):
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0},
            "quench": {"kind": "general", "table": [[0.0, 3.0]]},
        }
        with pytest.raises(ConfigError, match=r"quench\.table\[0\]"):
            from_dict(doc)

    def test_general_final_params_come_from_table(self):
        doc = {
            "model": {"n": 3, "omega_i": 3.0, "k_i": 2.0},
            "quench": {
                "kind": "general",
                "table": [[0.0, 3.0, 2.0], [1.0, 0.5, 2.5]],
                "interpolation": "previous",
            },
        }
        cfg = from_dict(doc)
        assert cfg.schedule is not None
        assert cfg.chain.omega_f == 0.5
        assert cfg.chain.k_f == 2.5

    def test_general_forbidden_for_bose_hubbard(self):
        doc = {
            "model": {"mode": "bose_hubbard", "omega_bh_i": 3.0,
                      "omega_bh_f": 2.15, "hop": 2.0},
            "quench": {"kind": "general", "table": [[0.0, 3.0, 2.0]]},
        }
        with pytest.raises(ConfigError, match="general protocols need model.mode = oscillator"):
            from_dict(doc)

    def test_bose_hubbard_rejects_oscillator_keys(self):
        doc = {
            "model": {"mode": "bose_hubbard", "omega_bh_i": 3.0,
                      "omega_bh_f": 2.15, "hop": 2.0, "n": 4},
        }
        with pytest.raises(ConfigError, match=r"model\.n: unknown key"):
            from_dict(doc)

    def test_overhopped_bose_hubbard_rejected(self):
        doc = {"model": {"mode": "bose_hubbard", "omega_bh_i": 3.0,
                         "omega_bh_f": 1.5, "hop": 2.0}}
        with pytest.raises(ConfigError, match="model:.*omega_bh"):
            from_dict(doc)

    def test_gapless_final_bose_hubbard_allowed(self):
        doc = {"model": {"mode": "bose_hubbard", "omega_bh_i": 3.0,
                         "omega_bh_f": 2.0, "hop": 2.0}}
        cfg = from_dict(doc)
        assert cfg.chain.omega_f == 0.0


class TestSweep:
    def test_no_lists_single_combo(self):
        doc = minimal_doc()
        combos = expand_sweep(doc)
        assert combos == [("", doc)]

    def test_single_key_sweep_labels(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = [0.3, 0.1, 0.01]
        combos = expand_sweep(doc)
        assert [label for label, _ in combos] == [
            "omega_f=0.3",
            "omega_f=0.1",
            "omega_f=0.01",
        ]
        assert [d["model"]["omega_f"] for _, d in combos] == [0.3, 0.1, 0.01]
        # untouched keys survive in every combo
        for _, d in combos:
            assert d["model"]["omega_i"] == 3.0

    def test_multi_key_cartesian_product_sorted_label(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = [0.3, 0.1]
        doc["model"]["n"] = [4, 6]
        combos = expand_sweep(doc)
        assert len(combos) == 4
        assert combos[0][0] == "n=4_omega_f=0.3"
        assert combos[-1][0] == "n=6_omega_f=0.1"

    def test_original_document_not_mutated(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = [0.3, 0.1]
        expand_sweep(doc)
        assert doc["model"]["omega_f"] == [0.3, 0.1]

    def test_empty_sweep_list_rejected(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = []
        with pytest.raises(ConfigError, match="sweep list must be non-empty"):
            expand_sweep(doc)

    def test_each_combo_parses(self):
        doc = minimal_doc()
        doc["model"]["omega_f"] = [0.3, 0.1]
        for label, combo in expand_sweep(doc):
            cfg = from_dict(combo)
            assert f"omega_f={cfg.chain.omega_f:g}" == label
