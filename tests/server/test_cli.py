"""CLI wiring for serve/loadtest: policy kinds validated at parse time
with the registry's error message, same UX as campaign."""

import pytest

from repro.cli import build_parser


def test_serve_rejects_unknown_policy_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--policies", "not-a-policy"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown policy kind 'not-a-policy'" in err
    assert "registered kinds" in err


def test_loadtest_rejects_unknown_policy_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["loadtest", "--policies", "lut-4",
                                   "nope-9"])
    assert exc.value.code == 2
    assert "unknown policy kind 'nope-9'" in capsys.readouterr().err


def test_serve_accepts_valid_grid_kinds():
    args = build_parser().parse_args(
        ["serve", "--policies", "lut-4", "bdd-4", "--port", "0"])
    assert args.policies == ["lut-4", "bdd-4"]
    assert args.func.__name__ == "cmd_serve"



@pytest.mark.parametrize("grace", ["nan", "inf", "-1"])
def test_serve_drain_grace_checked_at_parse_time(capsys, grace):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["serve", "--drain-grace", grace])
    assert exc.value.code == 2
    assert "must be a finite duration of at least 0" \
        in capsys.readouterr().err


def test_serve_zero_drain_grace_is_valid():
    args = build_parser().parse_args(["serve", "--drain-grace", "0"])
    assert args.drain_grace == 0.0

def test_loadtest_defaults():
    args = build_parser().parse_args(["loadtest", "--quick"])
    assert args.quick
    assert args.policies is None
    assert args.func.__name__ == "cmd_loadtest"
