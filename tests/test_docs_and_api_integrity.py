"""Documentation and API integrity: every public item is real and documented.

This is the executable half of the documentation deliverable: it walks the
package, asserts that every module and every ``__all__`` export exists and
carries a docstring, and that the package's layering rules hold (no upward
imports from the substrate layers into the bench harness).
"""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


ALL_MODULES = sorted(_walk_modules())


class TestModuleDocstrings:
    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_module_imports_and_has_docstring(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_all_exports_exist_and_documented(self, name):
        mod = importlib.import_module(name)
        exports = getattr(mod, "__all__", [])
        for symbol in exports:
            assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"
            obj = getattr(mod, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert inspect.getdoc(obj), f"{name}.{symbol} lacks a docstring"


class TestPublicSurface:
    def test_top_level_all_resolves(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)

    def test_public_functions_have_parameter_docs_smoke(self):
        # The front doors must document their parameters.
        for fn in (repro.maximal_independent_set, repro.maximal_matching):
            doc = inspect.getdoc(fn)
            assert "Parameters" in doc
            assert "method" in doc


class TestLayering:
    """Imports must point down the documented layer stack."""

    LOWER = ("repro.util", "repro.errors")
    SUBSTRATE = ("repro.pram", "repro.graphs")

    def _imports_of(self, module_path: pathlib.Path):
        import ast

        tree = ast.parse(module_path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name

    @pytest.mark.parametrize("layer_dir,forbidden", [
        ("util", ("repro.pram", "repro.graphs", "repro.core", "repro.bench",
                  "repro.theory", "repro.extensions", "repro.cli")),
        ("pram", ("repro.core", "repro.bench", "repro.theory",
                  "repro.extensions", "repro.cli", "repro.graphs")),
        ("graphs", ("repro.bench", "repro.theory", "repro.extensions",
                    "repro.cli", "repro.pram")),
        ("kernels", ("repro.core", "repro.bench", "repro.theory",
                     "repro.extensions", "repro.cli")),
        ("observability", ("repro.core", "repro.bench", "repro.theory",
                           "repro.extensions", "repro.cli")),
        ("backends", ("repro.core", "repro.service", "repro.bench",
                      "repro.theory", "repro.extensions", "repro.cli")),
        ("core", ("repro.bench", "repro.theory", "repro.extensions",
                  "repro.cli")),
        ("dynamic", ("repro.service", "repro.bench", "repro.theory",
                     "repro.extensions", "repro.cli")),
        ("service", ("repro.bench", "repro.theory", "repro.extensions",
                     "repro.cli")),
        ("resilience", ("repro.bench", "repro.theory", "repro.extensions",
                        "repro.cli")),
        ("theory", ("repro.bench", "repro.cli")),
        ("extensions", ("repro.bench", "repro.cli")),
    ])
    def test_no_upward_imports(self, layer_dir, forbidden):
        base = SRC / layer_dir
        offenders = []
        for py in base.rglob("*.py"):
            for imported in self._imports_of(py):
                if any(imported == f or imported.startswith(f + ".")
                       for f in forbidden):
                    offenders.append(f"{py.relative_to(SRC)} imports {imported}")
        assert not offenders, "\n".join(offenders)


class TestGatewayLayering:
    """The network front door sits on TOP of the stack:
    ``repro.service.http`` imports the service and resilience layers,
    never the reverse.  Everything below it must stay importable — and
    imported — without pulling the gateway in ("no gateway baggage")."""

    def _toplevel_imports_of(self, module_path: pathlib.Path):
        import ast

        tree = ast.parse(module_path.read_text())
        for node in tree.body:  # module scope only: lazy imports are fine
            if isinstance(node, ast.ImportFrom) and node.module:
                yield node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name

    def test_nothing_below_imports_the_gateway_eagerly(self):
        offenders = []
        for py in SRC.rglob("*.py"):
            if py == SRC / "service" / "http.py":
                continue
            for imported in self._toplevel_imports_of(py):
                if imported.startswith("repro.service.http"):
                    offenders.append(str(py.relative_to(SRC)))
        assert not offenders, (
            "module-scope imports of repro.service.http: "
            + ", ".join(offenders)
        )

    def test_importing_the_stack_does_not_load_the_gateway(self):
        # Run in a clean interpreter: this test session has long since
        # imported the gateway itself.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro, repro.service, repro.resilience, repro.cli\n"
            "assert 'repro.service.http' not in sys.modules, "
            "'gateway loaded eagerly'\n"
            "import repro.service.http  # and it still loads on demand\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestDocsFilesExist:
    @pytest.mark.parametrize("rel", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
        "CHANGELOG.md", "docs/architecture.md", "docs/paper-map.md",
        "docs/cost-model.md", "docs/api.md", "docs/observability.md",
        "docs/robustness.md", "docs/performance.md",
    ])
    def test_present_and_nonempty(self, rel):
        path = SRC.parent.parent / rel
        assert path.exists(), f"{rel} missing"
        assert len(path.read_text()) > 200, f"{rel} suspiciously short"


class TestScriptReferences:
    """Every ``scripts/<name>.py`` and ``results/<name>.md`` the living
    docs name must exist.

    History files (CHANGELOG.md, CHANGES.md, ROADMAP.md and
    ``perfbench/``) record retired scripts and reports on purpose and
    are not read.
    """

    DOCS = (
        "README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md",
        "docs/*.md", ".claude/skills/*/SKILL.md",
    )

    def _missing(self, pattern):
        import re

        root = SRC.parent.parent
        named, missing = 0, []
        for doc_glob in self.DOCS:
            for doc in sorted(root.glob(doc_glob)):
                for path in set(re.findall(pattern, doc.read_text())):
                    named += 1
                    if not (root / path).is_file():
                        missing.append(f"{doc.relative_to(root)}: {path}")
        assert named, f"no {pattern} references found; is the doc list stale?"
        return sorted(missing)

    def test_every_named_script_exists(self):
        missing = self._missing(r"(?<![\w/.-])scripts/[\w-]+\.py")
        assert not missing, "docs name missing scripts:\n" + "\n".join(missing)

    def test_every_named_report_exists(self):
        missing = self._missing(r"(?<![\w/.-])results/[\w.-]+\.md")
        assert not missing, "docs name missing reports:\n" + "\n".join(missing)


class TestDocsMatchRegistry:
    """docs/api.md must document exactly what the engine registry exposes."""

    @pytest.mark.parametrize("problem", ["mis", "matching"])
    def test_every_registered_method_is_documented(self, problem):
        from repro.core.engines import engine_methods

        api_md = (SRC.parent.parent / "docs" / "api.md").read_text()
        missing = [m for m in engine_methods(problem)
                   if f"`{m}`" not in api_md]
        assert not missing, (
            f"registered {problem} methods absent from docs/api.md: {missing}"
        )


class TestSessionApiIntegrity:
    """The session surface: docs, gateway routes, and the options record
    must agree — a documented endpoint that the gateway does not route
    (or vice versa) is a failure, as is a `SolveOptions` field missing
    from the api.md migration table."""

    GATEWAY_SRC = SRC / "service" / "http.py"

    def _gateway_session_routes(self):
        import re

        # Route labels as _resolve names them: "POST /v1/sessions", ...
        return sorted(set(re.findall(
            r'"((?:GET|POST|DELETE|PUT) /v1/sessions[^"]*)"',
            self.GATEWAY_SRC.read_text(),
        )))

    def test_gateway_routes_the_canonical_session_surface(self):
        assert self._gateway_session_routes() == [
            "DELETE /v1/sessions/{id}",
            "GET /v1/sessions",
            "GET /v1/sessions/{id}",
            "GET /v1/sessions/{id}/result",
            "POST /v1/sessions",
            "POST /v1/sessions/{id}/mutate",
        ]

    def test_every_gateway_session_route_is_documented(self):
        api_md = (SRC.parent.parent / "docs" / "api.md").read_text()
        for route in self._gateway_session_routes():
            _, path = route.split(" ", 1)
            assert path in api_md, (
                f"gateway session route {route!r} undocumented in docs/api.md"
            )

    def test_documented_session_handlers_exist_on_the_gateway(self):
        from repro.service.http import HTTPGateway

        for handler in (
            "_handle_session_create", "_handle_session_list",
            "_handle_session_info", "_handle_session_close",
            "_handle_session_mutate", "_handle_session_result",
        ):
            assert callable(getattr(HTTPGateway, handler, None)), (
                f"HTTPGateway.{handler} missing"
            )

    def test_every_solve_options_field_is_in_the_migration_table(self):
        import dataclasses

        from repro.core.options import SolveOptions

        api_md = (SRC.parent.parent / "docs" / "api.md").read_text()
        start = api_md.index("Migration table")
        table = api_md[start:start + 2000]
        missing = [f.name for f in dataclasses.fields(SolveOptions)
                   if f"`{f.name}`" not in table]
        assert not missing, (
            f"SolveOptions fields absent from the api.md migration table: "
            f"{missing}"
        )

    #: The knobs folded into constants, by the config class that had them.
    RETIRED_CONFIG_KNOBS = {
        "ServiceConfig": (
            "default_method", "default_guards", "degrade", "backoff_factor",
            "backoff_jitter", "retry_seed", "latency_window",
            "reap_on_start", "supervise_interval_s", "reap_interval_s",
            "cache_ttl_s",
        ),
        "GatewayConfig": (
            "deadline_slack_s", "retry_after_floor_s",
            "heartbeat_interval_s", "wedged_after_s", "executor_threads",
        ),
    }

    def test_every_config_knob_is_documented_and_every_retired_one_tabled(
        self,
    ):
        import dataclasses

        from repro.service import ServiceConfig
        from repro.service.http import GatewayConfig

        api_md = (SRC.parent.parent / "docs" / "api.md").read_text()
        start = api_md.index("### Retired service and gateway knobs")
        table = api_md[start:api_md.index("\n### ", start)]
        for cls in (ServiceConfig, GatewayConfig):
            undocumented = [f.name for f in dataclasses.fields(cls)
                            if f"`{f.name}`" not in api_md]
            assert not undocumented, (
                f"{cls.__name__} fields absent from docs/api.md: "
                f"{undocumented}"
            )
            for name in self.RETIRED_CONFIG_KNOBS[cls.__name__]:
                assert f"`{cls.__name__}.{name}`" in table, (
                    f"retired {cls.__name__}.{name} missing from the "
                    "api.md retired-knob table"
                )
                with pytest.raises(TypeError):
                    cls(**{name: None})

    def test_session_manager_is_exported_and_documented(self):
        import repro.service as service

        assert "SessionManager" in service.__all__
        assert "SessionInfo" in service.__all__
        api_md = (SRC.parent.parent / "docs" / "api.md").read_text()
        assert "create_session" in api_md
        assert "`repro.dynamic`" in api_md


class TestRetrySafetyDocs:
    """The exactly-once surface: wire schema, error taxonomy, CLI exits,
    and the runbook must stay in sync across code and docs."""

    API_MD = SRC.parent.parent / "docs" / "api.md"
    ROBUSTNESS_MD = SRC.parent.parent / "docs" / "robustness.md"

    def test_every_mutate_wire_field_is_documented(self):
        from repro.service import schema

        api_md = self.API_MD.read_text()
        missing = [f for f in schema.MUTATE_FIELDS if f"`{f}`" not in api_md]
        assert not missing, (
            f"MUTATE_FIELDS absent from docs/api.md: {missing}"
        )

    def test_idempotency_headers_are_documented(self):
        api_md = self.API_MD.read_text()
        assert "X-Repro-Idempotency-Key" in api_md
        assert "X-Repro-Idempotent-Replay" in api_md
        assert "X-Repro-Idempotency-Key" in self.ROBUSTNESS_MD.read_text()

    def test_new_error_types_are_real_and_documented(self):
        from repro import errors

        assert issubclass(errors.VersionConflictError, errors.ReproError)
        assert not issubclass(errors.VersionConflictError, errors.ServiceError)
        assert issubclass(errors.SnapshotCorruptError, errors.ServiceError)
        for doc in (self.API_MD, self.ROBUSTNESS_MD):
            text = doc.read_text()
            assert "VersionConflictError" in text, doc.name
            assert "SnapshotCorruptError" in text, doc.name

    def test_exit_code_7_documented_and_wired(self):
        from repro import cli

        api_md = self.API_MD.read_text()
        assert "| 7 |" in api_md, "exit code 7 missing from the api.md table"
        assert "recover" in cli._COMMANDS
        # The 409 CLI row in robustness.md must carry exit 7.
        assert "`VersionConflictError` | `7`" in self.ROBUSTNESS_MD.read_text()

    def test_runbook_section_exists_and_names_the_scenario(self):
        from repro.resilience import scenario_by_name

        scenario = scenario_by_name("ambiguous-retry")
        assert scenario.ambiguous_retry is True
        text = self.ROBUSTNESS_MD.read_text()
        assert "## Retry safety and recovery runbook" in text
        assert "ambiguous-retry" in text
