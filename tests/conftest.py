import pytest

from weyl27.checks import build_context
from weyl27.graphs import record_certificates


@pytest.fixture(scope="session")
def ctx():
    """Full pipeline run shared by every test that needs the complete table."""
    return build_context(workers=1)


@pytest.fixture(scope="session")
def certificates(ctx):
    """The seeded canonical certificate of every record of ctx, in order.
    The pipeline itself searches only the records whose type key another
    record shares (ctx.types)."""
    return record_certificates(ctx.records, ctx.group)
