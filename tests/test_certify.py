import numpy as np

from hgdiff import certify
from hgdiff.harness import VARIANTS


def test_joint_table_certifies_every_gradient_of_every_trainer():
    names = [name for name, _ in certify.named_gradient_checks(n_points=1)]
    assert len(names) == len(set(names))
    joint = {name for name in names if name.startswith("joint.")}
    combos, plans, cells = set(), {}, set()
    for (task, variant, per_row_t), trainer, draws in certify.joint_trainers():
        cfg = trainer.cfg
        assert (cfg.task, cfg.variant, cfg.diffusion.per_row_t) == (task, variant, per_row_t)
        combos.add((task, variant, per_row_t))
        if not per_row_t:
            plans[(task, variant)] = trainer.plan
        _, _, grads = trainer.compute_losses(draws)
        certified = {certify.cell_name(task, variant, per_row_t, key) for key in grads}
        assert len(certified) == len(grads)
        assert certified <= joint, sorted(certified - joint)
        cells |= certified
    # no joint entry outside some trainer's gradient dict
    assert joint == cells, sorted(joint - cells)
    # every variant each task accepts (the node task has one side, so -U
    # and -I are refused there), and per-row steps wherever the variant
    # draws steps
    stepped = {key for key, plan in plans.items() if plan.diffusion_sides and not plan.dae}
    assert set(plans) == ({("link", v) for v in VARIANTS}
                          | {("node", v) for v in ("full", "-D", "-H", "DAE")})
    assert combos == ({key + (False,) for key in plans} | {key + (True,) for key in stepped})


def test_named_cells_keep_their_names():
    assert certify.cell_name("link", "full", False, "e0") == "joint.e0"
    assert certify.cell_name("link", "full", True, "e0") == "joint.e0_per_row_t"
    assert certify.cell_name("link", "DAE", False, "e0") == "joint.e0_dae"
    assert certify.cell_name("link", "full", False, "denoiser.w1") == "joint.denoiser_w1"
    assert certify.cell_name("node", "full", False, "e0") == "joint.node_e0"
    assert certify.cell_name("link", "-I", True, "denoiser.b2") \
        == "joint.link.-I.per_row_t.denoiser.b2"


def test_the_loop_reports_a_wrong_gradient():
    def objective(a):
        grads = {"x": 2.0 * a["x"], "y": np.ones_like(a["y"])}
        return float((a["x"] ** 2).sum() + a["y"].sum()), grads

    def wrong(a):
        loss, grads = objective(a)
        return loss, {**grads, "x": 2.1 * a["x"]}

    points = [{"x": np.array([1.0, -2.0]), "y": np.ones(3)}]
    assert certify._worst_error(objective, "x", points, 1e-6) < 1e-8
    assert certify._worst_error(wrong, "x", points, 1e-6) > 1e-2
    # an entry checks its own array only: y's gradient is right in `wrong`
    assert certify._worst_error(wrong, "y", points, 1e-6) < 1e-8


def test_main_prints_one_line_per_entry_and_fails_above_tolerance(monkeypatch, capsys):
    rows = [("ok", lambda: 1e-9), ("bad", lambda: 2e-4), ("nan", lambda: float("nan"))]
    monkeypatch.setattr(certify, "named_gradient_checks", lambda: iter(rows))
    assert certify.main() == 1
    out, err = capsys.readouterr()
    lines = [line.split() for line in out.splitlines()]
    assert [line[0] for line in lines] == ["ok", "bad", "nan"]
    assert [line[1] for line in lines] == ["1.00e-09", "2.00e-04", "nan"]
    assert all(line[2].endswith("s") for line in lines)
    assert "bad" in err and "nan" in err and "ok" not in err
    monkeypatch.setattr(certify, "named_gradient_checks", lambda: iter(rows[:1]))
    assert certify.main() == 0
