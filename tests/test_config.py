import pytest

from bitension import catalog
from bitension.config import ConfigError, load_config

GOOD = """\
[chart sheet]
coords = u v
box = -1:1 -1:1

[chart space]
coords = p q r
box = -2:2 -2:2 -2:2
exclude = r:-1.5

[params]
a = 0.5

[metric flat2]
chart = sheet
identity = yes

[metric flat3]
chart = space
identity = yes

[map slice]
from = sheet
to = space
components =
    u
    a*v
    0

[check tension_zero]
tol = 1e-7

[check bitension_zero]

[run]
map = slice
metric = flat2
target = flat3
samples = 32
seed = 3
"""


def write(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_good_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, GOOD))
    assert cfg.name == "case"
    assert cfg.samples == 32 and cfg.seed == 3
    assert cfg.phi.parameters == {"a": 0.5}
    assert cfg.checks == (("tension_zero", 1e-7), ("bitension_zero", None))
    assert cfg.phi.domain.coords == ("u", "v")
    # the exclude line lands on the right axis of the target chart
    assert cfg.target.domain.excluded == ((2, -1.5),)
    case = cfg.build_case()
    rep = catalog.verify_case(case, samples=8, seed=1)
    assert rep.passed  # the a*v slice of flat space is still harmonic


def test_name_defaults_to_file_stem_and_label_overrides(tmp_path):
    cfg = load_config(write(tmp_path, GOOD, name="flat_slice.cfg"))
    assert cfg.name == "flat_slice"
    labeled = GOOD.replace("seed = 3", "seed = 3\nname = special")
    cfg = load_config(write(tmp_path, labeled))
    assert cfg.name == "special"


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("[run]", "[ruin]"), "unknown section"),
    (lambda t: t.replace("box = -1:1 -1:1", "box = -1:1"), "intervals"),
    (lambda t: t.replace("-1:1 -1:1", "-1:1 5:1"), "empty"),
    (lambda t: t.replace("coords = u v\n", "coords = u v\nshape = odd\n"),
     "unknown key"),
    (lambda t: t.replace("chart = sheet\nidentity = yes",
                         "chart = sheet\nidentity = yes\nconformal = u"),
     "exactly one"),
    (lambda t: t.replace("    a*v\n", ""), "need 3 components"),
    (lambda t: t.replace("from = sheet", "from = nowhere"), "nowhere"),
    (lambda t: t.replace("[check tension_zero]", "[check tension_small]"),
     "unknown check"),
    (lambda t: t.replace("tol = 1e-7", "tol = -2"), "positive"),
    # a tolerance of inf or NaN would pass every check it bounds
    (lambda t: t.replace("tol = 1e-7", "tol = inf"), "positive and finite"),
    (lambda t: t.replace("tol = 1e-7", "tol = nan"), "positive and finite"),
    # an interval of infinite width cannot be sampled
    (lambda t: t.replace("-1:1 -1:1", "-1:inf -1:1"),
     r"case\.cfg \[chart sheet\]: box interval \(-1, inf\) has no finite "
     r"width"),
    (lambda t: t.replace("-1:1 -1:1", "-1:1 -1e308:1e308"),
     r"\[chart sheet\]: box interval \(-1e\+308, 1e\+308\) has no finite"),
    (lambda t: t.replace("metric = flat2", "metric = flat3"),
     "starts from"),
    (lambda t: t.replace("samples = 32", "samples = soon"), "integer"),
    (lambda t: t.replace("seed = 3", "seed = --5"),
     "seed must be an integer"),
    (lambda t: t.replace("samples = 32", "samples = \u00b3"),
     "samples must be an integer"),
    # numbers are ASCII digits: a superscript is a located lexing error
    (lambda t: t.replace("a*v", "a*v^\u00b2"),
     r"case\.cfg \[map slice\]: cannot parse 'a\*v\^\u00b2': unexpected "
     r"character '\u00b2' \(offset 4\)"),
])
def test_rejections_carry_a_reason(tmp_path, mangle, needle):
    with pytest.raises(ConfigError, match=needle):
        load_config(write(tmp_path, mangle(GOOD)))


def test_metric_needs_exactly_one_style(tmp_path):
    text = GOOD.replace("[metric flat2]\nchart = sheet\nidentity = yes",
                        "[metric flat2]\nchart = sheet")
    with pytest.raises(ConfigError, match="exactly one"):
        load_config(write(tmp_path, text))


def test_unbound_name_is_reported(tmp_path):
    text = GOOD.replace("a*v", "kappa*v")
    with pytest.raises(ConfigError, match="unbound name 'kappa'"):
        load_config(write(tmp_path, text))


def test_missing_run_and_missing_checks(tmp_path):
    head, _, _ = GOOD.partition("[run]")
    with pytest.raises(ConfigError, match="run"):
        load_config(write(tmp_path, head))
    text = GOOD.replace("[check tension_zero]\ntol = 1e-7\n\n", "")
    text = text.replace("[check bitension_zero]\n\n", "")
    with pytest.raises(ConfigError, match="check"):
        load_config(write(tmp_path, text))


def test_duplicate_sections_are_rejected(tmp_path):
    text = GOOD + "\n[metric flat2]\nchart = sheet\nidentity = yes\n"
    with pytest.raises(ConfigError, match="already exists"):
        load_config(write(tmp_path, text))


def test_entry_style_metric_requires_diagonal(tmp_path):
    text = GOOD.replace("[metric flat2]\nchart = sheet\nidentity = yes",
                        "[metric flat2]\nchart = sheet\ng_1_1 = 1")
    with pytest.raises(ConfigError, match="g_2_2"):
        load_config(write(tmp_path, text))


FACTOR = """
[factor lam]
chart = sheet
expr = 1

[run]"""


@pytest.mark.parametrize("kind,extra,missing", [
    ("r3_tangential", "", "factor"),
    ("conformal_recovery", "", "factor"),
    ("r3_normal", "factor = lam\n", "induced")],
    ids=["r3_tangential", "conformal_recovery", "r3_normal"])
def test_r3_checks_need_induced_and_factor(tmp_path, kind, extra, missing):
    text = GOOD.replace("[check tension_zero]", f"[check {kind}]")
    text = text.replace("\n[run]", FACTOR) + extra
    # the message names the file, the [run] section and the missing key
    with pytest.raises(ConfigError, match=rf"case\.cfg \[run\]: check "
                       rf"'{kind}' needs {missing} = NAME"):
        load_config(write(tmp_path, text))


# GOOD plus an unused [factor] section: one section of every kind that has
# fixed keys
FULL = GOOD.replace("\n[run]", FACTOR)


def with_key(text, section, key, value):
    """``text`` with ``key = value`` set in ``[section]``."""
    blocks = text.split("\n\n")
    for k, block in enumerate(blocks):
        if block.startswith(f"[{section}]\n"):
            head, *lines = block.splitlines()
            lines = [line for line in lines if not line.startswith(f"{key} =")]
            blocks[k] = "\n".join([head, f"{key} = {value}"] + lines)
    return "\n\n".join(blocks)


def test_full_config_loads(tmp_path):
    assert load_config(write(tmp_path, FULL)).factor is None


@pytest.mark.parametrize("section", [
    "chart sheet", "metric flat2", "map slice", "factor lam",
    "check tension_zero", "run"])
def test_unknown_keys_are_named_in_every_section_kind(tmp_path, section):
    text = with_key(FULL, section, "shape", "odd")
    with pytest.raises(ConfigError, match=rf"case\.cfg \[{section}\]: "
                       r"unknown key 'shape'"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("section,key,label", [
    ("metric flat2", "chart", "chart"), ("map slice", "from", "chart"),
    ("map slice", "to", "chart"), ("factor lam", "chart", "chart"),
    ("run", "map", "map"), ("run", "metric", "metric"),
    ("run", "target", "metric"), ("run", "induced", "metric"),
    ("run", "factor", "factor")])
def test_dangling_references_are_named(tmp_path, section, key, label):
    text = with_key(FULL, section, key, "nowhere")
    with pytest.raises(ConfigError, match=rf"case\.cfg \[{section}\]: "
                       rf"{key} = 'nowhere' does not name a \[{label}\] "
                       "section"):
        load_config(write(tmp_path, text))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_deeply_nested_component_is_a_config_error(tmp_path):
    text = GOOD.replace("    a*v\n", "    " + "(" * 1000 + "v" + ")" * 1000 + "\n")
    with pytest.raises(ConfigError, match="nested deeper than 100 levels"):
        load_config(write(tmp_path, text))
